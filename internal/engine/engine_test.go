package engine

import (
	"errors"
	"net/netip"
	"testing"

	"pvr/internal/aspath"
	"pvr/internal/core"
	"pvr/internal/obs"
	"pvr/internal/prefix"
	"pvr/internal/route"
	"pvr/internal/sigs"
)

const (
	tProver   = aspath.ASN(100)
	tPromisee = aspath.ASN(199)
)

type env struct {
	reg     *sigs.Registry
	signers map[aspath.ASN]sigs.Signer
}

func newEnv(t testing.TB, providers int) *env {
	t.Helper()
	e := &env{reg: sigs.NewRegistry(), signers: map[aspath.ASN]sigs.Signer{}}
	asns := []aspath.ASN{tProver, tPromisee}
	for i := 0; i < providers; i++ {
		asns = append(asns, aspath.ASN(101+i))
	}
	for _, asn := range asns {
		s, err := sigs.GenerateEd25519()
		if err != nil {
			t.Fatal(err)
		}
		e.signers[asn] = s
		e.reg.Register(asn, s.Public())
	}
	return e
}

func (e *env) engine(t testing.TB, shards, maxLen int) *ProverEngine {
	t.Helper()
	eng, err := New(Config{
		ASN: tProver, Signer: e.signers[tProver], Registry: e.reg,
		Shards: shards, MaxLen: maxLen,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func (e *env) announce(t testing.TB, from aspath.ASN, epoch uint64, pfx prefix.Prefix, length int) core.Announcement {
	t.Helper()
	asns := make([]aspath.ASN, length)
	asns[0] = from
	for i := 1; i < length; i++ {
		asns[i] = aspath.ASN(65000 + i)
	}
	r := route.Route{
		Prefix:  pfx,
		Path:    aspath.New(asns...),
		NextHop: netip.AddrFrom4([4]byte{10, 0, 0, 1}),
	}
	a, err := core.NewAnnouncement(e.signers[from], from, tProver, epoch, r)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func testPrefixes(t testing.TB, n int) []prefix.Prefix {
	t.Helper()
	out := make([]prefix.Prefix, n)
	for i := range out {
		out[i] = prefix.V4(10, byte(i>>8), byte(i), 0, 24)
	}
	return out
}

// TestResumeEpochNeverReusesRecoveredWindow: a prover restarted
// mid-epoch resumes with the window sequence it durably recorded; its
// first seal set after recovery must publish under the NEXT window even
// though nothing is dirty-in-the-old-sense — re-occupying a recovered
// window with fresh (re-randomized) commitments would be an equivocation
// against its own gossiped roots.
func TestResumeEpochNeverReusesRecoveredWindow(t *testing.T) {
	e := newEnv(t, 1)
	eng := e.engine(t, 2, 16)
	eng.ResumeEpoch(7, 5)
	if got := eng.Window(); got != 5 {
		t.Fatalf("Window after resume = %d, want 5", got)
	}
	pfx := prefix.V4(10, 0, 0, 0, 24)
	if err := eng.AcceptAnnouncement(e.announce(t, 101, 7, pfx, 2), obs.TraceContext{}); err != nil {
		t.Fatal(err)
	}
	seals, err := eng.SealEpoch()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range seals {
		if s.Window != 6 {
			t.Fatalf("seal window = %d, want 6 (recovered window 5 must not be reused)", s.Window)
		}
	}
	// A second SealEpoch with nothing dirty is a no-op at the same window.
	again, err := eng.SealEpoch()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range again {
		if s.Window != 6 {
			t.Fatalf("clean re-seal moved the window to %d", s.Window)
		}
	}
	// A plain BeginEpoch clears the resumed state: window restarts at 0
	// and the first seal takes the fresh-epoch path.
	eng.BeginEpoch(8)
	if err := eng.AcceptAnnouncement(e.announce(t, 101, 8, pfx, 2), obs.TraceContext{}); err != nil {
		t.Fatal(err)
	}
	seals, err = eng.SealEpoch()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range seals {
		if s.Window != 0 {
			t.Fatalf("fresh epoch sealed at window %d, want 0", s.Window)
		}
	}
}

func TestEngineEndToEnd(t *testing.T) {
	const k, nPfx = 3, 50
	e := newEnv(t, k)
	eng := e.engine(t, 4, 16)
	eng.BeginEpoch(7)

	anns := make(map[prefix.Prefix][]core.Announcement)
	for i, pfx := range testPrefixes(t, nPfx) {
		for j := 0; j < k; j++ {
			a := e.announce(t, aspath.ASN(101+j), 7, pfx, 1+(i+j)%16)
			if err := eng.AcceptAnnouncement(a, obs.TraceContext{}); err != nil {
				t.Fatal(err)
			}
			anns[pfx] = append(anns[pfx], a)
		}
	}

	seals, err := eng.SealEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if len(seals) != eng.ShardCount() {
		t.Fatalf("got %d seals for %d shards (every shard must seal)", len(seals), eng.ShardCount())
	}
	var total uint32
	for _, s := range seals {
		if err := s.Verify(e.reg); err != nil {
			t.Fatalf("seal %d: %v", s.Shard, err)
		}
		total += s.Count
	}
	if total != nPfx {
		t.Fatalf("seals cover %d prefixes, want %d", total, nPfx)
	}

	if got := eng.Prefixes(); len(got) != nPfx {
		t.Fatalf("Prefixes() = %d, want %d", len(got), nPfx)
	}

	for pfx, as := range anns {
		sc, err := eng.Commitment(pfx)
		if err != nil {
			t.Fatal(err)
		}
		if err := sc.Verify(e.reg); err != nil {
			t.Fatalf("%s: sealed commitment: %v", pfx, err)
		}
		for _, a := range as {
			pv, err := eng.DiscloseToProvider(pfx, a.Provider)
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyProviderView(e.reg, pv, a); err != nil {
				t.Fatalf("%s provider %s: %v", pfx, a.Provider, err)
			}
		}
		bv, err := eng.DiscloseToPromisee(pfx, tPromisee)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyPromiseeView(e.reg, bv); err != nil {
			t.Fatalf("%s promisee: %v", pfx, err)
		}
		// The winner must be the shortest input.
		min := 1 << 30
		for _, a := range as {
			if l := a.Route.PathLen(); l < min {
				min = l
			}
		}
		if bv.Winner == nil || bv.Winner.Route.PathLen() != min {
			t.Fatalf("%s: winner length != committed minimum %d", pfx, min)
		}
	}
}

func TestEnginePipelineVerifiesAll(t *testing.T) {
	const k, nPfx = 2, 40
	e := newEnv(t, k)
	eng := e.engine(t, 4, 12)
	eng.BeginEpoch(1)
	anns := make(map[prefix.Prefix][]core.Announcement)
	for i, pfx := range testPrefixes(t, nPfx) {
		for j := 0; j < k; j++ {
			a := e.announce(t, aspath.ASN(101+j), 1, pfx, 1+(i+j)%12)
			if err := eng.AcceptAnnouncement(a, obs.TraceContext{}); err != nil {
				t.Fatal(err)
			}
			anns[pfx] = append(anns[pfx], a)
		}
	}
	if _, err := eng.SealEpoch(); err != nil {
		t.Fatal(err)
	}

	pl := NewPipeline(e.reg, 4)
	jobs := 0
	for pfx, as := range anns {
		for _, a := range as {
			v, err := eng.DiscloseToProvider(pfx, a.Provider)
			if err != nil {
				t.Fatal(err)
			}
			pl.SubmitProvider(v, a)
			jobs++
		}
		bv, err := eng.DiscloseToPromisee(pfx, tPromisee)
		if err != nil {
			t.Fatal(err)
		}
		pl.SubmitPromisee(bv, tPromisee)
		jobs++
	}
	results := pl.Drain()
	if len(results) != jobs {
		t.Fatalf("pipeline returned %d results for %d jobs", len(results), jobs)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s neighbor %s: %v", r.Prefix, r.Neighbor, r.Err)
		}
	}
}

func TestEngineDetectsTampering(t *testing.T) {
	e := newEnv(t, 2)
	eng := e.engine(t, 2, 8)
	eng.BeginEpoch(3)
	pfx := prefix.MustParse("203.0.113.0/24")
	a1 := e.announce(t, 101, 3, pfx, 2)
	a2 := e.announce(t, 102, 3, pfx, 5)
	for _, a := range []core.Announcement{a1, a2} {
		if err := eng.AcceptAnnouncement(a, obs.TraceContext{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.SealEpoch(); err != nil {
		t.Fatal(err)
	}

	// A corrupted inclusion proof must not verify.
	sc, err := eng.Commitment(pfx)
	if err != nil {
		t.Fatal(err)
	}
	bad := *sc
	badProof := *sc.Proof
	badProof.Index++
	bad.Proof = &badProof
	if err := bad.Verify(e.reg); err == nil {
		t.Fatal("tampered proof verified")
	}

	// A commitment presented under the wrong shard's seal must not verify:
	// the verifier recomputes the prefix -> shard mapping.
	_, rightShard, err := eng.shardOf(pfx)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range eng.Seals() {
		if s.Shard == rightShard {
			continue
		}
		bad = *sc
		bad.Seal = s
		if err := bad.Verify(e.reg); err == nil {
			t.Fatalf("commitment verified under foreign shard %d", s.Shard)
		}
	}

	// A seal signed by someone else must not verify.
	badSeal := *sc.Seal
	if badSeal.Sig, err = e.signers[101].Sign(badSeal.SignedBytes()); err != nil {
		t.Fatal(err)
	}
	bad = *sc
	bad.Seal = &badSeal
	if err := bad.Verify(e.reg); err == nil {
		t.Fatal("foreign seal verified")
	}

	// A wrong export under a valid seal must surface as a *core.Violation:
	// the Byzantine prover exports the longer route while the sealed
	// vector commits to the minimum.
	bv, err := eng.DiscloseToPromisee(pfx, tPromisee)
	if err != nil {
		t.Fatal(err)
	}
	longer, err := a2.Route.WithPrepended(tProver)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := core.NewExportStatement(e.signers[tProver], tProver, tPromisee, 3, longer, false)
	if err != nil {
		t.Fatal(err)
	}
	cheat := *bv
	cheat.Export = exp
	cheat.Winner = &a2
	err = VerifyPromiseeView(e.reg, &cheat)
	if v, ok := core.IsViolation(err); !ok || v.Kind != "bad-export" {
		t.Fatalf("want bad-export violation, got %v", err)
	}
}

func TestEngineEpochLifecycle(t *testing.T) {
	e := newEnv(t, 1)
	eng := e.engine(t, 2, 8)
	pfx := prefix.MustParse("203.0.113.0/24")

	if err := eng.AcceptAnnouncement(e.announce(t, 101, 1, pfx, 2), obs.TraceContext{}); err == nil {
		t.Fatal("accept before BeginEpoch succeeded")
	}
	if _, err := eng.SealEpoch(); err == nil {
		t.Fatal("seal before BeginEpoch succeeded")
	}

	eng.BeginEpoch(1)
	if err := eng.AcceptAnnouncement(e.announce(t, 101, 1, pfx, 2), obs.TraceContext{}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SealEpoch(); err != nil {
		t.Fatal(err)
	}
	if err := eng.AcceptAnnouncement(e.announce(t, 101, 1, pfx, 3), obs.TraceContext{}); err == nil {
		t.Fatal("accept after seal succeeded")
	}
	// Sealing twice is idempotent.
	s1, err := eng.SealEpoch()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := eng.SealEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != len(s2) || s1[0].Root != s2[0].Root {
		t.Fatal("SealEpoch not idempotent")
	}

	// Announcements from the wrong epoch are rejected.
	eng.BeginEpoch(2)
	if err := eng.AcceptAnnouncement(e.announce(t, 101, 1, pfx, 2), obs.TraceContext{}); !errors.Is(err, core.ErrWrongEpoch) {
		t.Fatalf("want ErrWrongEpoch, got %v", err)
	}
	if err := eng.AcceptAnnouncement(e.announce(t, 101, 2, pfx, 2), obs.TraceContext{}); err != nil {
		t.Fatal(err)
	}
}

func TestSealRoundTrip(t *testing.T) {
	e := newEnv(t, 1)
	eng := e.engine(t, 1, 8)
	eng.BeginEpoch(9)
	pfx := prefix.MustParse("203.0.113.0/24")
	if err := eng.AcceptAnnouncement(e.announce(t, 101, 9, pfx, 2), obs.TraceContext{}); err != nil {
		t.Fatal(err)
	}
	seals, err := eng.SealEpoch()
	if err != nil {
		t.Fatal(err)
	}
	b, err := seals[0].MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Seal
	if err := back.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if back.Prover != seals[0].Prover || back.Epoch != seals[0].Epoch ||
		back.Shard != seals[0].Shard || back.Shards != seals[0].Shards ||
		back.Count != seals[0].Count || back.Root != seals[0].Root {
		t.Fatal("seal round-trip mismatch")
	}
	if err := back.Verify(e.reg); err != nil {
		t.Fatalf("round-tripped seal: %v", err)
	}
}
