package sigs

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"

	"pvr/internal/aspath"
)

// memoStripes is the number of lock stripes in a VerifyMemo; a power of
// two so the stripe index is a mask of the key hash.
const memoStripes = 64

// memoStripeGen bounds one generation of one stripe. Each stripe keeps
// its current generation and the one before, so a memo never holds more
// than MemoCap verdicts however long the process runs.
const memoStripeGen = 256

// MemoCap is the most verdicts a VerifyMemo holds.
const MemoCap = 2 * memoStripes * memoStripeGen

// VerifyMemo memoizes signature-verification verdicts keyed by the full
// (signer, message, signature) triple. The protocol re-checks the same
// seal signature on many paths — the gossip overlay when a seal
// statement arrives, the verification pipeline for every disclosure in
// a shard, the query plane when a peer asks for the same epoch — and
// each of those used to keep its own memo (or none). One shared
// VerifyMemo makes a signature checked anywhere a signature checked
// everywhere.
//
// Verdicts are cached including failures: a forged seal stays rejected
// without re-deriving the rejection. The memo is lock-striped so
// pipeline workers hitting the same hot seal do not serialize on one
// mutex.
//
// The memo is bounded by two-generation rotation per stripe: a full
// current generation becomes the previous one and the one before that is
// dropped. A verdict found in the previous generation is carried into the
// current one, so whatever keeps being asked about keeps hitting, and
// whatever a window advance left behind ages out after two generations.
type VerifyMemo struct {
	stripes [memoStripes]memoStripe
	hits    atomic.Uint64
	misses  atomic.Uint64
}

type memoStripe struct {
	mu        sync.RWMutex
	cur, prev memoGen
}

// memoGen is one generation of one stripe. A verdict is mostly "verified",
// so those are kept as bare digests in an open-addressed table that
// doubles on demand (32 B a slot, load kept at most 4/5); the rare
// failures keep their error in a side map.
type memoGen struct {
	ok    [][sha256.Size]byte // linear probing; the zero digest marks a free slot
	n     int                 // occupied slots of ok
	fails map[[sha256.Size]byte]error
}

// memoMinSlots is the first table size: doubling it four times gives the
// 5/4 · memoStripeGen slots a full generation needs at load 4/5.
const memoMinSlots = memoStripeGen * 5 / 4 / 16

func (g *memoGen) len() int { return g.n + len(g.fails) }

// slot returns the index of k in ok, or of the free slot where it would go.
// The table is never full, so the probe ends. Byte 0 of k picks the stripe;
// the slot is drawn from bytes the stripe index does not use.
func (g *memoGen) slot(k [sha256.Size]byte) int {
	i := int(uint64(binary.LittleEndian.Uint32(k[8:])) * uint64(len(g.ok)) >> 32)
	for g.ok[i] != k && g.ok[i] != ([sha256.Size]byte{}) {
		if i++; i == len(g.ok) {
			i = 0
		}
	}
	return i
}

func (g *memoGen) lookup(k [sha256.Size]byte) (error, bool) {
	if g.n > 0 && k != ([sha256.Size]byte{}) && g.ok[g.slot(k)] == k {
		return nil, true
	}
	err, ok := g.fails[k]
	return err, ok
}

func (g *memoGen) add(k [sha256.Size]byte, err error) {
	if err != nil || k == ([sha256.Size]byte{}) {
		if g.fails == nil {
			g.fails = make(map[[sha256.Size]byte]error)
		}
		g.fails[k] = err
		return
	}
	if (g.n+1)*5 > len(g.ok)*4 {
		old := g.ok
		g.ok = make([][sha256.Size]byte, max(2*len(old), memoMinSlots))
		for _, o := range old {
			if o != ([sha256.Size]byte{}) {
				g.ok[g.slot(o)] = o
			}
		}
	}
	if i := g.slot(k); g.ok[i] != k {
		g.ok[i] = k
		g.n++
	}
}

// NewVerifyMemo returns an empty memo.
func NewVerifyMemo() *VerifyMemo { return &VerifyMemo{} }

// lookup reports the cached verdict for k and whether it sits in the
// current generation (a previous-generation hit still needs carrying over).
func (s *memoStripe) lookup(k [sha256.Size]byte) (err error, ok, current bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err, ok = s.cur.lookup(k); ok {
		return err, true, true
	}
	err, ok = s.prev.lookup(k)
	return err, ok, false
}

func (s *memoStripe) store(k [sha256.Size]byte, err error) {
	s.mu.Lock()
	s.cur.add(k, err)
	if s.cur.len() >= memoStripeGen {
		s.prev, s.cur = s.cur, memoGen{}
	}
	s.mu.Unlock()
}

func memoKey(asn aspath.ASN, msg, sig []byte) [sha256.Size]byte {
	h := sha256.New()
	var hdr [8]byte
	hdr[0] = byte(asn >> 24)
	hdr[1] = byte(asn >> 16)
	hdr[2] = byte(asn >> 8)
	hdr[3] = byte(asn)
	hdr[4] = byte(len(msg) >> 24)
	hdr[5] = byte(len(msg) >> 16)
	hdr[6] = byte(len(msg) >> 8)
	hdr[7] = byte(len(msg))
	h.Write(hdr[:])
	h.Write(msg)
	h.Write(sig)
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// Verify checks sig over msg by asn through the memo: a cached verdict
// is returned without touching the verifier.
func (m *VerifyMemo) Verify(ver Verifier, asn aspath.ASN, msg, sig []byte) error {
	return m.Do(memoKey(asn, msg, sig), func() error { return ver.Verify(asn, msg, sig) })
}

// Do returns the verdict memoized under key, running check on a miss.
// It is the memo's general form, for verdicts other than one signature
// (a zero-knowledge proof, say): key must be a collision-resistant digest
// of everything check's outcome depends on, under a domain tag of the
// caller's own. An ErrUnknownKey failure is not memoized: it says the
// registry lacks the key so far, not that the signature is bad.
func (m *VerifyMemo) Do(key [sha256.Size]byte, check func() error) error {
	s := &m.stripes[key[0]&(memoStripes-1)]
	err, ok, current := s.lookup(key)
	if ok {
		m.hits.Add(1)
		if current {
			return err
		}
	} else {
		err = check()
		m.misses.Add(1)
		if errors.Is(err, ErrUnknownKey) {
			return err
		}
	}
	s.store(key, err)
	return err
}

// Bind adapts the memo to the Verifier interface over a fixed underlying
// verifier, so components that accept a plain Verifier (the auditnet
// store, say) participate in the shared memo: a seal statement verified
// on the gossip path is already settled when a disclosure query checks
// the same seal. All Bind sharers must use the same key set — the
// memoized verdict is a function of the triple and the registry.
func (m *VerifyMemo) Bind(ver Verifier) Verifier {
	return memoVerifier{memo: m, ver: ver}
}

type memoVerifier struct {
	memo *VerifyMemo
	ver  Verifier
}

func (v memoVerifier) Lookup(asn aspath.ASN) (PublicKey, error) {
	return v.ver.Lookup(asn)
}

func (v memoVerifier) Verify(asn aspath.ASN, msg, sig []byte) error {
	return v.memo.Verify(v.ver, asn, msg, sig)
}

// Seen reports whether a verdict for the triple is already cached,
// without computing one.
func (m *VerifyMemo) Seen(asn aspath.ASN, msg, sig []byte) bool {
	k := memoKey(asn, msg, sig)
	_, ok, _ := m.stripes[k[0]&(memoStripes-1)].lookup(k)
	return ok
}

// Hits returns how many checks were answered from cache.
func (m *VerifyMemo) Hits() uint64 { return m.hits.Load() }

// Misses returns how many checks had to run the verifier.
func (m *VerifyMemo) Misses() uint64 { return m.misses.Load() }

// Len returns the number of cached verdicts, at most MemoCap.
func (m *VerifyMemo) Len() int {
	n := 0
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.RLock()
		n += s.cur.len() + s.prev.len()
		s.mu.RUnlock()
	}
	return n
}
