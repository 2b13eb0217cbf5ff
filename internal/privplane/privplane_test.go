package privplane

import (
	"bytes"
	"net/netip"
	"sync"
	"testing"

	"pvr/internal/aspath"
	"pvr/internal/core"
	"pvr/internal/engine"
	"pvr/internal/obs"
	"pvr/internal/prefix"
	"pvr/internal/route"
	"pvr/internal/sigs"
	"pvr/internal/zkp"
)

const tProver = aspath.ASN(100)

// env is a ZKBind engine with k providers (ASNs 101..100+k) that each
// announced one route for every test prefix, sealed, plus ring keys for
// every provider.
type env struct {
	reg     *sigs.Registry
	eng     *engine.ProverEngine
	dir     *Directory
	ringKey map[aspath.ASN]*RingKey
	pfxs    []prefix.Prefix
	anns    map[aspath.ASN]core.Announcement // per provider, for pfxs[0]
}

func newEnv(t testing.TB, k, nPfx int) *env {
	t.Helper()
	e := &env{
		reg: sigs.NewRegistry(), dir: NewDirectory(),
		ringKey: map[aspath.ASN]*RingKey{},
		anns:    map[aspath.ASN]core.Announcement{},
	}
	signers := map[aspath.ASN]sigs.Signer{}
	asns := []aspath.ASN{tProver}
	for i := 0; i < k; i++ {
		asns = append(asns, aspath.ASN(101+i))
	}
	for _, asn := range asns {
		s, err := sigs.GenerateEd25519()
		if err != nil {
			t.Fatal(err)
		}
		signers[asn] = s
		e.reg.Register(asn, s.Public())
		if asn != tProver {
			rk, err := GenerateRingKey(asn)
			if err != nil {
				t.Fatal(err)
			}
			e.ringKey[asn] = rk
			if err := e.dir.RegisterBytes(asn, rk.PublicBytes()); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng, err := engine.New(engine.Config{
		ASN: tProver, Signer: signers[tProver], Registry: e.reg,
		Shards: 2, MaxLen: 8, ZKBind: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.eng = eng
	eng.BeginEpoch(1)
	for i := 0; i < nPfx; i++ {
		pfx := prefix.V4(10, byte(i>>8), byte(i), 0, 24)
		e.pfxs = append(e.pfxs, pfx)
		for j := 0; j < k; j++ {
			from := aspath.ASN(101 + j)
			length := 1 + (i+j)%8
			path := make([]aspath.ASN, length)
			path[0] = from
			for l := 1; l < length; l++ {
				path[l] = aspath.ASN(65000 + l)
			}
			r := route.Route{Prefix: pfx, Path: aspath.New(path...), NextHop: netip.AddrFrom4([4]byte{10, 0, 0, 1})}
			a, err := core.NewAnnouncement(signers[from], from, tProver, 1, r)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.AcceptAnnouncement(a, obs.TraceContext{}); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				e.anns[from] = a
			}
		}
	}
	if _, err := eng.SealEpoch(); err != nil {
		t.Fatal(err)
	}
	return e
}

func (e *env) plane(t testing.TB) *Plane {
	t.Helper()
	p, err := New(Config{Engine: e.eng, Dir: e.dir, Obs: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func (e *env) providers() []aspath.ASN {
	out := make([]aspath.ASN, 0, len(e.ringKey))
	for asn := range e.ringKey {
		out = append(out, asn)
	}
	canon, _ := CanonicalRing(out)
	return canon
}

func TestCanonicalRing(t *testing.T) {
	got, err := CanonicalRing([]aspath.ASN{30, 10, 20})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []aspath.ASN{10, 20, 30} {
		if got[i] != want {
			t.Fatalf("canonical order %v", got)
		}
	}
	if _, err := CanonicalRing([]aspath.ASN{10, 20, 10}); err == nil {
		t.Fatal("duplicate member accepted")
	}
}

func TestDirectoryRingCache(t *testing.T) {
	e := newEnv(t, 3, 1)
	ring := e.providers()
	r1, err := e.dir.Ring(ring)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.dir.Ring(ring)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("ring not cached")
	}
	// Re-registration invalidates.
	rk, err := GenerateRingKey(ring[0])
	if err != nil {
		t.Fatal(err)
	}
	e.dir.Register(ring[0], rk.Public())
	r3, err := e.dir.Ring(ring)
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r1 {
		t.Fatal("stale ring served after key rotation")
	}
	if _, err := e.dir.Ring([]aspath.ASN{ring[0]}); err == nil {
		t.Fatal("1-member ring accepted")
	}
	if _, err := e.dir.Ring([]aspath.ASN{ring[1], ring[0]}); err == nil {
		t.Fatal("non-canonical member order accepted")
	}
	if _, err := e.dir.Ring([]aspath.ASN{ring[0], 999}); err == nil {
		t.Fatal("unknown member accepted")
	}
}

func TestRingSigWireRoundTrip(t *testing.T) {
	e := newEnv(t, 3, 1)
	p := e.plane(t)
	ring := e.providers()
	msg := []byte("anon disclose")
	sig, err := p.Sign(ring, e.ringKey[ring[1]], msg)
	if err != nil {
		t.Fatal(err)
	}
	wire := MarshalRingSig(sig)
	rt, err := UnmarshalRingSig(wire, len(ring))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(MarshalRingSig(rt), wire) {
		t.Fatal("ring signature encoding not canonical")
	}
	r, err := e.dir.Ring(ring)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(msg, rt); err != nil {
		t.Fatal(err)
	}
	// Structural garbage must error, never panic.
	if _, err := UnmarshalRingSig(wire[:len(wire)-1], len(ring)); err == nil {
		t.Fatal("ragged signature length decoded")
	}
	if _, err := UnmarshalRingSig(nil, len(ring)); err == nil {
		t.Fatal("empty signature decoded")
	}
	if _, err := UnmarshalRingSig(wire, 1); err == nil {
		t.Fatal("1-member split accepted")
	}
}

func TestCheckAnonGrantsEveryMember(t *testing.T) {
	e := newEnv(t, 4, 2)
	p := e.plane(t)
	ring := e.providers()
	msg := []byte("open my bit")
	for _, signer := range ring {
		sig, err := p.Sign(ring, e.ringKey[signer], msg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.CheckAnon(e.pfxs[0], ring, msg, sig); err != nil {
			t.Fatalf("member %s: %v", signer, err)
		}
	}
}

func TestCheckAnonRejects(t *testing.T) {
	e := newEnv(t, 3, 1)
	p := e.plane(t)
	ring := e.providers()
	msg := []byte("open my bit")
	sig, err := p.Sign(ring, e.ringKey[ring[0]], msg)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong message.
	if p.CheckAnon(e.pfxs[0], ring, []byte("other"), sig) == nil {
		t.Fatal("wrong message accepted")
	}
	// Ring containing a non-provider: the outsider has a directory key but
	// provided no route, so the set is not an anonymity set of providers.
	outsider := aspath.ASN(900)
	rk, err := GenerateRingKey(outsider)
	if err != nil {
		t.Fatal(err)
	}
	e.dir.Register(outsider, rk.Public())
	badRing, _ := CanonicalRing(append([]aspath.ASN{outsider}, ring[:1]...))
	badSig, err := p.Sign(badRing, rk, msg)
	if err != nil {
		t.Fatal(err)
	}
	if p.CheckAnon(e.pfxs[0], badRing, msg, badSig) == nil {
		t.Fatal("ring with non-provider accepted")
	}
	// Too-small ring.
	if p.CheckAnon(e.pfxs[0], ring[:1], msg, sig) == nil {
		t.Fatal("1-ring accepted")
	}
	// Signature over a different ring.
	sub, _ := CanonicalRing(ring[:2])
	if p.CheckAnon(e.pfxs[0], sub, msg, sig) == nil {
		t.Fatal("signature accepted over a different ring")
	}
}

func TestVectorViewVerifiesAndCaches(t *testing.T) {
	e := newEnv(t, 3, 2)
	p := e.plane(t)
	vv, sc, err := p.VectorView(e.pfxs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Verify(e.reg); err != nil {
		t.Fatal(err)
	}
	if err := p.VerifyAuditorProof(sc, vv); err != nil {
		t.Fatal(err)
	}
	vv2, _, err := p.VectorView(e.pfxs[0])
	if err != nil {
		t.Fatal(err)
	}
	if vv2 != vv {
		t.Fatal("vector proof not cached per (epoch, window, prefix)")
	}
	// A proof transplanted onto another prefix's seal must fail: the
	// Fiat–Shamir context binds prover, epoch, window, prefix, and root.
	_, sc2, err := p.VectorView(e.pfxs[1])
	if err != nil {
		t.Fatal(err)
	}
	if p.VerifyAuditorProof(sc2, vv) == nil {
		t.Fatal("proof transplanted across prefixes verified")
	}
	// Tampered commitment vector must fail the digest check.
	mut := &VectorView{Commitments: append(vv.Commitments[:0:0], vv.Commitments...), Proof: vv.Proof}
	mut.Commitments[0], mut.Commitments[1] = mut.Commitments[1], mut.Commitments[0]
	if p.VerifyAuditorProof(sc, mut) == nil {
		t.Fatal("reordered commitment vector verified")
	}
}

// TestAuditorProofVerdictMemo: with a memo, an unchanged proof under an
// unchanged seal is verified once; a proof differing in one byte, or the
// same proof under another seal, is a different key — verified from
// scratch, and rejected.
func TestAuditorProofVerdictMemo(t *testing.T) {
	e := newEnv(t, 3, 2)
	memo := sigs.NewVerifyMemo()
	p, err := New(Config{Engine: e.eng, Dir: e.dir, Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	vv, sc, err := p.VectorView(e.pfxs[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := p.VerifyAuditorProof(sc, vv); err != nil {
			t.Fatal(err)
		}
	}
	if memo.Misses() != 1 || memo.Hits() != 2 {
		t.Fatalf("three checks of one proof: %d verified, %d memoized; want 1 and 2", memo.Misses(), memo.Hits())
	}

	// One byte of the proof differs (the wire form of a response changes
	// in its last byte).
	pb, err := vv.Proof.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	pb[len(pb)-1] ^= 1
	var bent zkp.VectorProof
	if err := bent.UnmarshalBinary(pb); err != nil {
		t.Fatal(err)
	}
	if p.VerifyAuditorProof(sc, &VectorView{Commitments: vv.Commitments, Proof: &bent}) == nil {
		t.Fatal("a proof differing in one byte was accepted")
	}
	if memo.Misses() != 2 {
		t.Fatalf("a proof differing in one byte was answered from the memo (misses %d)", memo.Misses())
	}

	// The same proof and commitments under a different seal: another
	// prefix's, so the seal-bound context differs.
	_, sc2, err := p.VectorView(e.pfxs[1])
	if err != nil {
		t.Fatal(err)
	}
	moved := *sc2
	moved.ZKDigest = sc.ZKDigest // let it past the digest check, onto the proof
	if p.VerifyAuditorProof(&moved, vv) == nil {
		t.Fatal("a proof was accepted under a seal it was not made for")
	}
	if memo.Misses() != 3 {
		t.Fatalf("the same proof under another seal was answered from the memo (misses %d)", memo.Misses())
	}
	// And the honest verdict is still there.
	if err := p.VerifyAuditorProof(sc, vv); err != nil || memo.Misses() != 3 {
		t.Fatalf("original proof: %v, misses %d", err, memo.Misses())
	}
}

// TestVectorViewSingleFlight: auditors asking for one (epoch, window,
// prefix) at the same moment share one proof build and one view.
func TestVectorViewSingleFlight(t *testing.T) {
	e := newEnv(t, 3, 1)
	p := e.plane(t)
	const n = 8
	start := make(chan struct{})
	views := make([]*VectorView, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			views[i], _, errs[i] = p.VectorView(e.pfxs[0])
		}(i)
	}
	close(start)
	wg.Wait()
	for i := range views {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if views[i] == nil || views[i] != views[0] {
			t.Fatalf("asker %d got its own view", i)
		}
	}
	if built := p.met.proofsBuilt.Value(); built != 1 {
		t.Fatalf("pvr_priv_proofs_built_total = %d after %d concurrent askers of one key, want 1", built, n)
	}
	if hits := p.met.proofHits.Value(); hits != n-1 {
		t.Fatalf("pvr_priv_proof_cache_hits_total = %d, want %d", hits, n-1)
	}
}

// TestVectorCtxNeedsAPrefix: a context that silently left the prefix out
// would let one proof serve every prefix of a shard.
func TestVectorCtxNeedsAPrefix(t *testing.T) {
	if _, err := VectorCtx(&engine.SealedCommitment{MC: &core.MinCommitment{}, Seal: &engine.Seal{}}); err == nil {
		t.Fatal("a context with no prefix in it was derived without error")
	}
}
