package privplane

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"pvr/internal/aspath"
	"pvr/internal/engine"
	"pvr/internal/obs"
	"pvr/internal/prefix"
	"pvr/internal/ringsig"
	"pvr/internal/sigs"
	"pvr/internal/zkp"
)

// vectorCtxTag domain-separates the Fiat–Shamir context binding a vector
// proof to the sealed commitment it opens.
const vectorCtxTag = "pvr/priv/vector-ctx/v1"

// proofVerdictTag domain-separates memoized vector-proof verdicts from the
// signature verdicts sharing the memo. VectorCtx is self-delimiting (fixed
// fields, a length-prefixed prefix, a fixed-size root) and the digest is
// fixed-size, so the concatenation under the tag is unambiguous.
const proofVerdictTag = "pvr/priv/proof-verdict/v1"

// Config parameterizes a Plane.
type Config struct {
	// Engine is the sealed state proofs and anonymous openings are served
	// from. Nil builds a client-only plane (Sign and VerifyAuditorProof
	// work; CheckAnon and VectorView refuse).
	Engine *engine.ProverEngine
	// Dir resolves ring members' public keys. Required.
	Dir *Directory
	// MinRing is the server's minimum acceptable anonymity set (default
	// and floor 2: a smaller ring names its signer).
	MinRing int
	// Memo, when non-nil, memoizes VerifyAuditorProof verdicts, keyed on
	// the seal-bound context, the commitment digest and the proof bytes: an
	// auditor fetching an unchanged proof again in the same window pays for
	// hashing it, not for the exponentiations.
	Memo *sigs.VerifyMemo
	// Obs, when non-nil, exports the plane's pvr_priv_* metric families.
	Obs *obs.Registry
}

// Plane is the privacy plane of one participant: ring-signature signing
// and checking, and zero-knowledge vector proofs over the engine's sealed
// Pedersen vectors, with the proof built once per (prefix, epoch, window).
// Safe for concurrent use.
type Plane struct {
	cfg Config
	met *privMetrics

	mu     sync.Mutex
	window [2]uint64 // the (epoch, window) the cached proofs belong to
	proofs map[prefix.Prefix]*proofEntry
}

// proofEntry is one cached proof; once makes concurrent first askers
// share a single build.
type proofEntry struct {
	once sync.Once
	vv   *VectorView
	err  error
}

// VectorView is the auditor-facing ZK material for one sealed prefix: the
// Pedersen commitment vector the seal's leaf digests, and the proof that
// it commits to a well-formed monotone bit vector. It contains no
// openings — nothing in it reveals any bit.
type VectorView struct {
	Commitments []zkp.Commitment
	Proof       *zkp.VectorProof
}

// New validates the config and builds a plane.
func New(cfg Config) (*Plane, error) {
	if cfg.Dir == nil {
		return nil, fmt.Errorf("privplane: Dir is required")
	}
	if cfg.MinRing < 2 {
		cfg.MinRing = 2
	}
	return &Plane{cfg: cfg, met: newPrivMetrics(cfg.Obs), proofs: make(map[prefix.Prefix]*proofEntry)}, nil
}

// Dir returns the plane's ring-key directory.
func (p *Plane) Dir() *Directory { return p.cfg.Dir }

// Sign ring-signs msg as key's holder among members (canonical order).
// The signer must be a ring member with its registered key matching key.
func (p *Plane) Sign(members []aspath.ASN, key *RingKey, msg []byte) (*ringsig.Signature, error) {
	t0 := time.Now()
	r, err := p.cfg.Dir.Ring(members)
	if err != nil {
		return nil, err
	}
	sig, err := r.Sign(msg, key.priv)
	if err != nil {
		return nil, err
	}
	p.met.ringSigns.Inc()
	p.met.ringSignSec.ObserveSince(t0)
	return sig, nil
}

// CheckAnon is the server half of an anonymous provider query: members
// must be a canonical ring of at least MinRing ASNs, every one a declared
// provider for pfx this epoch, and sig a valid ring signature over msg.
// On success the server knows "some provider in this ring asked" and
// nothing more. Failures count as ring rejects.
func (p *Plane) CheckAnon(pfx prefix.Prefix, members []aspath.ASN, msg []byte, sig *ringsig.Signature) error {
	if err := p.checkAnon(pfx, members, msg, sig); err != nil {
		p.met.ringRejects.Inc()
		return err
	}
	p.met.anonQueries.Inc()
	return nil
}

func (p *Plane) checkAnon(pfx prefix.Prefix, members []aspath.ASN, msg []byte, sig *ringsig.Signature) error {
	if p.cfg.Engine == nil {
		return fmt.Errorf("privplane: no engine to serve anonymous queries from")
	}
	if len(members) < p.cfg.MinRing {
		return fmt.Errorf("%w: %d members, need %d", ErrRingTooSmall, len(members), p.cfg.MinRing)
	}
	provs, err := p.cfg.Engine.Providers(pfx)
	if err != nil {
		return err
	}
	declared := make(map[aspath.ASN]bool, len(provs))
	for _, a := range provs {
		declared[a] = true
	}
	for i, m := range members {
		if i > 0 && members[i] <= members[i-1] {
			return fmt.Errorf("%w: members not in canonical order", ErrBadRing)
		}
		if !declared[m] {
			return fmt.Errorf("%w: %s provided no route for %s this epoch", ErrBadRing, m, pfx)
		}
	}
	r, err := p.cfg.Dir.Ring(members)
	if err != nil {
		return err
	}
	t0 := time.Now()
	err = r.Verify(msg, sig)
	p.met.ringVerifySec.ObserveSince(t0)
	p.met.ringVerifies.Inc()
	return err
}

// NoteAttributed counts a provider view granted to a NAMED requester —
// the attributed half of the anonymous-vs-attributed split the metrics
// expose.
func (p *Plane) NoteAttributed() { p.met.attrQueries.Inc() }

// VectorView returns (building and caching on first use) the auditor view
// for pfx under the engine's current seal, plus the sealed commitment it
// verifies against. The proof is bound to the seal via VectorCtx, so the
// cache key is (epoch, window, prefix): a re-seal invalidates everything,
// and concurrent first askers of one key share a single build.
func (p *Plane) VectorView(pfx prefix.Prefix) (*VectorView, *engine.SealedCommitment, error) {
	if p.cfg.Engine == nil {
		return nil, nil, fmt.Errorf("privplane: no engine to build vector proofs from")
	}
	cs, os, sc, err := p.cfg.Engine.ZKOpenings(pfx)
	if err != nil {
		return nil, nil, err
	}
	window := [2]uint64{sc.Seal.Epoch, sc.Seal.Window}
	p.mu.Lock()
	if p.window != window {
		// A re-seal strands every cached proof; drop them wholesale.
		p.window, p.proofs = window, make(map[prefix.Prefix]*proofEntry)
	}
	ent, ok := p.proofs[pfx]
	if !ok {
		ent = new(proofEntry)
		p.proofs[pfx] = ent
	}
	p.mu.Unlock()
	if ok {
		p.met.proofHits.Inc()
	}
	ent.once.Do(func() {
		t0 := time.Now()
		ctx, err := VectorCtx(sc)
		if err != nil {
			ent.err = err
			return
		}
		vp, err := zkp.ProveVector(cs, os, ctx)
		if err != nil {
			ent.err = err
			return
		}
		p.met.proofGenSec.ObserveSince(t0)
		p.met.proofsBuilt.Inc()
		ent.vv = &VectorView{Commitments: cs, Proof: vp}
	})
	if ent.err != nil {
		return nil, nil, ent.err
	}
	return ent.vv, sc, nil
}

// VerifyAuditorProof is the third party's check of a ZK opening: the
// commitment vector must digest to exactly what the (already verified)
// sealed commitment's leaf binds, and the Σ-protocol proof must verify
// under the seal-bound context. It deliberately takes the sealed
// commitment rather than raw bytes: callers must have authenticated sc
// (seal signature + Merkle inclusion) first — this check adds "and the
// Pedersen vector the seal vouches for commits to a well-formed monotone
// bit vector", i.e. the promise holds.
func (p *Plane) VerifyAuditorProof(sc *engine.SealedCommitment, vv *VectorView) error {
	if sc == nil || vv == nil || vv.Proof == nil {
		return fmt.Errorf("privplane: incomplete auditor view")
	}
	if !sc.HasZK {
		return fmt.Errorf("privplane: sealed commitment carries no ZK digest")
	}
	if zkp.DigestCommitments(vv.Commitments) != sc.ZKDigest {
		return fmt.Errorf("privplane: commitment vector does not match the sealed digest")
	}
	t0 := time.Now()
	ctx, err := VectorCtx(sc)
	if err != nil {
		return err
	}
	verify := func() error { return zkp.VerifyVector(vv.Commitments, vv.Proof, ctx) }
	if p.cfg.Memo == nil {
		err = verify()
	} else {
		// The verdict is a function of exactly these three: the context
		// names the seal (prover, epoch, window, prefix, shard root), the
		// digest — just checked against the seal's — names the commitment
		// vector, and the proof is the proof. A byte of difference in any
		// of them is a different key, verified from scratch.
		pb, merr := vv.Proof.MarshalBinary()
		if merr != nil {
			return merr
		}
		h := sha256.New()
		h.Write([]byte(proofVerdictTag))
		h.Write(ctx)
		h.Write(sc.ZKDigest[:])
		h.Write(pb)
		var key [sha256.Size]byte
		h.Sum(key[:0])
		err = p.cfg.Memo.Do(key, verify)
	}
	p.met.proofVerifySec.ObserveSince(t0)
	p.met.proofVerifies.Inc()
	return err
}

// VectorCtx derives the Fiat–Shamir context a vector proof is bound to:
// the prover, epoch, window, prefix, and shard root of the seal being
// opened. A proof transplanted onto any other sealed commitment fails.
func VectorCtx(sc *engine.SealedCommitment) ([]byte, error) {
	pb, err := sc.MC.Prefix.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("privplane: vector context: %w", err)
	}
	buf := append(make([]byte, 0, len(vectorCtxTag)+21+len(pb)+len(sc.Seal.Root)), vectorCtxTag...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(sc.MC.Prover))
	buf = binary.BigEndian.AppendUint64(buf, sc.MC.Epoch)
	buf = binary.BigEndian.AppendUint64(buf, sc.Seal.Window)
	buf = append(append(buf, byte(len(pb))), pb...)
	return append(buf, sc.Seal.Root[:]...), nil
}
