// Package privplane is PVR's privacy plane: the machinery that lets the
// disclosure query plane (internal/discplane) answer queries without
// learning more about the asker — or revealing more about the answer —
// than the paper's §2.2 access policy strictly requires.
//
// It supplies three pieces:
//
//   - Provider k-anonymity. A provider authenticates a DISCLOSE query
//     with an RST ring signature (internal/ringsig) over the epoch's
//     declared provider set for the prefix, so the server can check
//     "some provider for this prefix is asking" and grant the §3.3
//     single-bit opening without learning which provider asked. The
//     anonymity set is the ring: k = ring size.
//
//   - Zero-knowledge third-party openings. When the engine seals with
//     Config.ZKBind, each shard leaf also binds a Pedersen commitment
//     vector over the committed bits (internal/zkp, over ristretto255).
//     The plane builds Σ-protocol proofs that the sealed vector is
//     well-formed and monotone — "the promise holds" — on first request,
//     once per (epoch, window, prefix) however many auditors ask at
//     once, and an auditor verifies one against the gossiped seal
//     without any bit being opened: a few milliseconds to build, a few
//     to verify, a hash when the verdict is already in the memo.
//
//   - Ring key material. Ring signatures need RSA trapdoor permutations,
//     which the Ed25519 signing identities (internal/sigs) cannot
//     provide, so participants carry a dedicated ring key; the Directory
//     maps ASNs to ring public keys the way sigs.Registry maps them to
//     signing keys.
package privplane

import (
	"crypto/rand"
	"crypto/rsa"
	"crypto/x509"
	"errors"
	"fmt"
	"sort"
	"sync"

	"pvr/internal/aspath"
	"pvr/internal/ringsig"
)

// RingKeyBits is the modulus size of generated ring keys. Ring signatures
// cost one RSA exponentiation per member per verify; 1024-bit keys keep a
// k=32 ring verify in the hundred-microsecond range. The keys authenticate
// membership in a per-epoch provider set, not long-lived identity — the
// Ed25519 registry keys keep that job.
const RingKeyBits = 1024

// Errors of the privacy plane.
var (
	// ErrRingTooSmall reports a ring below the server's minimum anonymity
	// set (never below 2 — a 1-ring names its signer).
	ErrRingTooSmall = errors.New("privplane: ring smaller than the minimum anonymity set")
	// ErrBadRing reports a ring that is not a sorted, duplicate-free subset
	// of the prefix's declared providers.
	ErrBadRing = errors.New("privplane: ring is not a subset of the declared providers")
	// ErrNoKey reports a ring member with no key in the directory.
	ErrNoKey = errors.New("privplane: no ring key for member")
)

// RingKey is a participant's ring-signing identity: a dedicated RSA key
// pair, separate from the Ed25519 key it signs protocol messages with.
type RingKey struct {
	asn  aspath.ASN
	priv *rsa.PrivateKey
}

// GenerateRingKey draws a fresh ring key for asn.
func GenerateRingKey(asn aspath.ASN) (*RingKey, error) {
	priv, err := rsa.GenerateKey(rand.Reader, RingKeyBits)
	if err != nil {
		return nil, err
	}
	return &RingKey{asn: asn, priv: priv}, nil
}

// NewRingKey wraps an existing RSA private key as asn's ring key.
func NewRingKey(asn aspath.ASN, priv *rsa.PrivateKey) (*RingKey, error) {
	if priv == nil {
		return nil, fmt.Errorf("privplane: nil ring key")
	}
	return &RingKey{asn: asn, priv: priv}, nil
}

// ASN returns the key holder.
func (k *RingKey) ASN() aspath.ASN { return k.asn }

// Public returns the ring public key.
func (k *RingKey) Public() *rsa.PublicKey { return &k.priv.PublicKey }

// PublicBytes returns the PKCS#1 DER encoding of the public key, the form
// the Directory registers from.
func (k *RingKey) PublicBytes() []byte {
	return x509.MarshalPKCS1PublicKey(&k.priv.PublicKey)
}

// ringCacheMax bounds the directory's constructed-ring cache; past it the
// cache is dropped wholesale (rings rebuild in microseconds — the cache
// exists to skip the per-query domain sizing and key copying, not to be
// precious).
const ringCacheMax = 256

// Directory maps ASNs to ring public keys and caches constructed rings
// per member set. Safe for concurrent use.
type Directory struct {
	mu    sync.RWMutex
	keys  map[aspath.ASN]*rsa.PublicKey
	rings map[string]*ringsig.Ring
}

// NewDirectory builds an empty directory.
func NewDirectory() *Directory {
	return &Directory{
		keys:  make(map[aspath.ASN]*rsa.PublicKey),
		rings: make(map[string]*ringsig.Ring),
	}
}

// Register records asn's ring public key, replacing any previous one.
func (d *Directory) Register(asn aspath.ASN, pub *rsa.PublicKey) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.keys[asn] = pub
	// A re-registered key invalidates every cached ring that may embed the
	// old one; membership strings are not tracked per key, so drop all.
	d.rings = make(map[string]*ringsig.Ring)
}

// RegisterBytes registers a PKCS#1 DER public key (RingKey.PublicBytes).
func (d *Directory) RegisterBytes(asn aspath.ASN, der []byte) error {
	pub, err := x509.ParsePKCS1PublicKey(der)
	if err != nil {
		return fmt.Errorf("privplane: ring key for %s: %w", asn, err)
	}
	d.Register(asn, pub)
	return nil
}

// Lookup returns asn's ring public key, or nil.
func (d *Directory) Lookup(asn aspath.ASN) *rsa.PublicKey {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.keys[asn]
}

// Len returns the number of registered keys.
func (d *Directory) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.keys)
}

// CanonicalRing sorts members ascending and rejects duplicates: the wire
// carries the ring in canonical order so both sides construct the same
// ringsig.Ring (member order is part of the scheme).
func CanonicalRing(members []aspath.ASN) ([]aspath.ASN, error) {
	out := append([]aspath.ASN(nil), members...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	for i := 1; i < len(out); i++ {
		if out[i] == out[i-1] {
			return nil, fmt.Errorf("%w: duplicate member %s", ErrBadRing, out[i])
		}
	}
	return out, nil
}

// Ring constructs (or returns the cached) ring over the given members,
// which must be in canonical order (sorted ascending, no duplicates).
func (d *Directory) Ring(members []aspath.ASN) (*ringsig.Ring, error) {
	if len(members) < 2 {
		return nil, ErrRingTooSmall
	}
	key := ringKeyString(members)
	d.mu.RLock()
	r, ok := d.rings[key]
	d.mu.RUnlock()
	if ok {
		return r, nil
	}
	pubs := make([]*rsa.PublicKey, len(members))
	for i, m := range members {
		if i > 0 && members[i] <= members[i-1] {
			return nil, fmt.Errorf("%w: members not in canonical order", ErrBadRing)
		}
		pub := d.Lookup(m)
		if pub == nil {
			return nil, fmt.Errorf("%w %s", ErrNoKey, m)
		}
		pubs[i] = pub
	}
	r, err := ringsig.NewRing(pubs)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	if len(d.rings) >= ringCacheMax {
		d.rings = make(map[string]*ringsig.Ring)
	}
	d.rings[key] = r
	d.mu.Unlock()
	return r, nil
}

func ringKeyString(members []aspath.ASN) string {
	b := make([]byte, 0, len(members)*5)
	for _, m := range members {
		b = append(b, byte(m>>24), byte(m>>16), byte(m>>8), byte(m), '/')
	}
	return string(b)
}

// MarshalRingSig flattens a ring signature to wire bytes: the glue value
// followed by each x_i, all of identical width (width = total/(n+1)).
func MarshalRingSig(sig *ringsig.Signature) []byte {
	out := make([]byte, 0, len(sig.V)*(len(sig.Xs)+1))
	out = append(out, sig.V...)
	for _, x := range sig.Xs {
		out = append(out, x...)
	}
	return out
}

// UnmarshalRingSig splits wire bytes back into a signature over an n-member
// ring. The component width is implied by the length; a length that does
// not divide into n+1 equal components is malformed.
func UnmarshalRingSig(b []byte, n int) (*ringsig.Signature, error) {
	if n < 2 || len(b) == 0 || len(b)%(n+1) != 0 {
		return nil, ringsig.ErrBadSignature
	}
	w := len(b) / (n + 1)
	sig := &ringsig.Signature{V: append([]byte(nil), b[:w]...), Xs: make([][]byte, n)}
	for i := 0; i < n; i++ {
		sig.Xs[i] = append([]byte(nil), b[(i+1)*w:(i+2)*w]...)
	}
	return sig, nil
}
