package engine

import (
	"strings"
	"testing"

	"pvr/internal/aspath"
	"pvr/internal/core"
	"pvr/internal/obs"
	"pvr/internal/sigs"
)

// sealedEngine builds a Promisee-configured engine over the env.
func (e *env) sealedEngine(t testing.TB, shards, maxLen int) *ProverEngine {
	t.Helper()
	eng, err := New(Config{
		ASN: tProver, Signer: e.signers[tProver], Registry: e.reg,
		Shards: shards, MaxLen: maxLen, Promisee: tPromisee,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestSealedExportEndToEnd covers the sealed-export epoch: the configured
// promisee's view carries an unsigned export authenticated by the shard
// seal through a hiding commitment, any other promisee still gets a
// per-prefix signature, and every tampering angle on the sealed path is
// rejected.
func TestSealedExportEndToEnd(t *testing.T) {
	const k, nPfx = 2, 20
	e := newEnv(t, k)
	eng := e.sealedEngine(t, 4, 16)
	eng.BeginEpoch(3)

	pfxs := testPrefixes(t, nPfx)
	var anns []core.Announcement
	for i, pfx := range pfxs {
		for j := 0; j < k; j++ {
			anns = append(anns, e.announce(t, aspath.ASN(101+j), 3, pfx, 1+(i+j)%16))
		}
	}
	if _, err := eng.AcceptAll(anns, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SealEpoch(); err != nil {
		t.Fatal(err)
	}

	for _, pfx := range pfxs {
		v, err := eng.DiscloseToPromisee(pfx, tPromisee)
		if err != nil {
			t.Fatal(err)
		}
		if len(v.Export.Sig) != 0 {
			t.Fatalf("%s: sealed-export view carries a per-prefix export signature", pfx)
		}
		if !v.Sealed.HasExport {
			t.Fatalf("%s: sealed-export view missing the leaf commitment", pfx)
		}
		if err := VerifyPromiseeView(e.reg, v); err != nil {
			t.Fatalf("%s: sealed-export view rejected: %v", pfx, err)
		}
	}

	// A promisee the engine was not configured for still gets the classic
	// signed export — the optimization never weakens who can verify.
	other, err := eng.DiscloseToPromisee(pfxs[0], aspath.ASN(198))
	if err != nil {
		t.Fatal(err)
	}
	if len(other.Export.Sig) == 0 {
		t.Fatal("unconfigured promisee got an unsigned export")
	}
	if err := VerifyPromiseeView(e.reg, other); err != nil {
		t.Fatalf("signed export for unconfigured promisee rejected: %v", err)
	}

	// Tampering: a flipped opening nonce, an opening over different bytes,
	// and a stripped commitment must each fail.
	v, err := eng.DiscloseToPromisee(pfxs[0], tPromisee)
	if err != nil {
		t.Fatal(err)
	}
	bad := *v
	bad.ExportOpening.Nonce[0] ^= 1
	if err := VerifyPromiseeView(e.reg, &bad); err == nil {
		t.Fatal("flipped opening nonce accepted")
	}
	bad = *v
	bad.Export.To = aspath.ASN(198) // statement no longer matches the committed bytes
	if err := VerifyPromiseeView(e.reg, &bad); err == nil {
		t.Fatal("redirected unsigned export accepted")
	}
	bad = *v
	sealed := *v.Sealed
	sealed.HasExport = false
	bad.Sealed = &sealed
	if err := VerifyPromiseeView(e.reg, &bad); err == nil {
		t.Fatal("unsigned export without a sealed commitment accepted")
	}
	bad = *v
	sealed = *v.Sealed
	sealed.ExportC[0] ^= 1 // leaf no longer matches the shard root
	bad.Sealed = &sealed
	if err := VerifyPromiseeView(e.reg, &bad); err == nil {
		t.Fatal("mutated export commitment accepted")
	}
}

// TestAcceptAllReceiptBatch pins the batched-ingest contract: one
// ReceiptBatch signature acknowledges the whole burst, each extracted
// receipt verifies for exactly its provider, the resulting minimum
// matches serial ingest, and a forged announcement anywhere in the burst
// aborts the call naming its provider.
func TestAcceptAllReceiptBatch(t *testing.T) {
	const k, nPfx = 3, 10
	e := newEnv(t, k)
	eng := e.engine(t, 2, 16)
	eng.BeginEpoch(5)
	serial := e.engine(t, 2, 16)
	serial.BeginEpoch(5)

	pfxs := testPrefixes(t, nPfx)
	var anns []core.Announcement
	for i, pfx := range pfxs {
		for j := 0; j < k; j++ {
			anns = append(anns, e.announce(t, aspath.ASN(101+j), 5, pfx, 1+(i*j)%16))
		}
	}
	rb, err := eng.AcceptAll(anns, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := rb.Verify(e.reg); err != nil {
		t.Fatalf("receipt batch rejected: %v", err)
	}
	if rb.Len() != len(anns) {
		t.Fatalf("receipt batch covers %d announcements, want %d", rb.Len(), len(anns))
	}
	for i := range anns {
		br, err := rb.Receipt(i)
		if err != nil {
			t.Fatal(err)
		}
		if br.Provider != anns[i].Provider {
			t.Fatalf("receipt %d issued to %s, want %s", i, br.Provider, anns[i].Provider)
		}
		if err := br.Verify(e.reg, &anns[i]); err != nil {
			t.Fatalf("receipt %d rejected: %v", i, err)
		}
	}

	for _, a := range anns {
		if err := serial.AcceptAnnouncement(a, obs.TraceContext{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.SealEpoch(); err != nil {
		t.Fatal(err)
	}
	if _, err := serial.SealEpoch(); err != nil {
		t.Fatal(err)
	}
	for _, pfx := range pfxs {
		a, err := eng.DiscloseToPromisee(pfx, tPromisee)
		if err != nil {
			t.Fatal(err)
		}
		b, err := serial.DiscloseToPromisee(pfx, tPromisee)
		if err != nil {
			t.Fatal(err)
		}
		if a.Winner == nil || b.Winner == nil || a.Winner.Provider != b.Winner.Provider {
			t.Fatalf("%s: batched ingest winner %+v, serial %+v", pfx, a.Winner, b.Winner)
		}
	}

	// A forged signature anywhere in the burst aborts ingest entirely.
	eng2 := e.engine(t, 2, 16)
	eng2.BeginEpoch(5)
	forged := make([]core.Announcement, len(anns))
	copy(forged, anns)
	forged[4].Sig = append([]byte(nil), forged[4].Sig...)
	forged[4].Sig[3] ^= 0x20
	if _, err := eng2.AcceptAll(forged, 2); err == nil {
		t.Fatal("burst with a forged announcement accepted")
	} else if !strings.Contains(err.Error(), forged[4].Provider.String()) {
		t.Fatalf("forged-announcement error does not name the provider: %v", err)
	}

	// An empty burst is a no-op, not a panic or an unsignable batch.
	if rb, err := eng2.AcceptAll(nil, 2); err != nil || rb != nil {
		t.Fatalf("empty burst: (%v, %v), want (nil, nil)", rb, err)
	}
}

// TestPipelineSharedSealMemo pins the cross-path amortization: a seal
// signature settled anywhere the memo is wired (here, the gossip-observe
// style Bind path) is a memo hit for every pipeline sharing it — and the
// pipeline's own first check seeds the memo for the next pipeline.
func TestPipelineSharedSealMemo(t *testing.T) {
	const k, nPfx = 2, 8
	e := newEnv(t, k)
	eng := e.engine(t, 1, 16) // one shard => exactly one distinct seal
	eng.BeginEpoch(9)
	pfxs := testPrefixes(t, nPfx)
	for i, pfx := range pfxs {
		for j := 0; j < k; j++ {
			if err := eng.AcceptAnnouncement(e.announce(t, aspath.ASN(101+j), 9, pfx, 1+(i+j)%16), obs.TraceContext{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	seals, err := eng.SealEpoch()
	if err != nil {
		t.Fatal(err)
	}

	// The gossip path verifies the seal statement through the shared memo.
	memo := sigs.NewVerifyMemo()
	st := seals[0].Statement()
	if err := memo.Bind(e.reg).Verify(st.Origin, st.Payload, st.Sig); err != nil {
		t.Fatal(err)
	}
	if memo.Misses() != 1 {
		t.Fatalf("gossip-path check: %d misses, want 1", memo.Misses())
	}

	// Every pipeline seal check across two pipelines is now a hit: the
	// signature is never re-derived.
	for round := 0; round < 2; round++ {
		pl := NewPipeline(e.reg, 2)
		pl.ShareSealMemo(memo)
		for _, pfx := range pfxs {
			v, err := eng.DiscloseToPromisee(pfx, tPromisee)
			if err != nil {
				t.Fatal(err)
			}
			pl.SubmitPromisee(v, tPromisee)
		}
		for _, r := range pl.Drain() {
			if r.Err != nil {
				t.Fatalf("round %d: %s: %v", round, r.Prefix, r.Err)
			}
		}
	}
	if memo.Misses() != 1 {
		t.Fatalf("pipelines re-verified a gossip-settled seal: %d misses, want 1", memo.Misses())
	}
	if memo.Hits() < 2*nPfx {
		t.Fatalf("memo hits %d, want >= %d (one per submitted view)", memo.Hits(), 2*nPfx)
	}
}
