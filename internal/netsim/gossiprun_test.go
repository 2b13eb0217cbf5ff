package netsim

import (
	"context"
	"errors"
	"testing"

	"pvr/internal/auditnet"
	"pvr/internal/engine"
)

// TestGossipConvergenceDetectsEquivocation is the acceptance chain for the
// audit network: a 20-node run detects an injected cross-shard
// equivocation within the log₂ bound, the conviction persists to a ledger,
// survives a reload with verification, and makes engine.Pipeline reject
// the convicted prover's disclosures.
func TestGossipConvergenceDetectsEquivocation(t *testing.T) {
	dir := t.TempDir()
	res, err := RunGossip(context.Background(), GossipConfig{
		Nodes: 20, Fanout: 2, Equivocate: true, Seed: 1, LedgerDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Fatal("equivocation not detected")
	}
	bound := DetectionBound(res.Nodes)
	if res.FirstDetection > bound {
		t.Fatalf("first detection after %d rounds, bound is %d", res.FirstDetection, bound)
	}
	if res.FullDetection == 0 || res.FullDetection > res.EpochStats[0].Rounds {
		t.Fatalf("conviction did not reach all nodes: full detection round %d", res.FullDetection)
	}
	t.Logf("detection: first round %d, all %d nodes by round %d (bound %d)",
		res.FirstDetection, res.Nodes, res.FullDetection, bound)

	// The conviction survives a reload: replay node 0's ledger through a
	// fresh auditor, which re-verifies both signatures and re-judges.
	led, recs, err := auditnet.OpenLedger(res.LedgerPaths[0])
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	if len(recs) == 0 {
		t.Fatal("ledger is empty after conviction")
	}
	reloaded, err := auditnet.New(auditnet.Config{
		ASN: 1000, Registry: res.Registry, Ledger: led, Replay: recs,
	})
	if err != nil {
		t.Fatalf("ledger replay failed: %v", err)
	}
	if !reloaded.Convicted(res.Prover) {
		t.Fatal("conviction did not survive ledger reload")
	}

	// The convicted set gates the verification pipeline: a disclosure whose
	// seal names the convicted prover is refused before any crypto.
	pl := engine.NewPipeline(res.Registry, 1)
	defer pl.Close()
	pl.SetBanlist(reloaded.Convicted)
	view := &engine.PromiseeView{Sealed: &engine.SealedCommitment{Seal: &engine.Seal{Prover: res.Prover}}}
	pl.SubmitPromisee(view, 1000)
	results := pl.Drain()
	if len(results) != 1 || !errors.Is(results[0].Err, engine.ErrConvictedProver) {
		t.Fatalf("pipeline did not reject convicted prover: %+v", results)
	}
}

// TestGossipBytesScaleWithDelta: reconciliation traffic tracks the number
// of new statements, not the accumulated store size.
func TestGossipBytesScaleWithDelta(t *testing.T) {
	res, err := RunGossip(context.Background(), GossipConfig{Nodes: 12, Fanout: 2, Epochs: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.EpochStats) != 6 {
		t.Fatalf("got %d epochs", len(res.EpochStats))
	}
	first, last := res.EpochStats[1], res.EpochStats[len(res.EpochStats)-1]
	if last.StoreBefore <= first.StoreBefore {
		t.Fatalf("store did not grow: %d -> %d", first.StoreBefore, last.StoreBefore)
	}
	// Identical Δ per epoch: traffic for the last epoch must not balloon
	// with the store (allow 2x noise from peer-selection variance).
	if last.Bytes > 2*first.Bytes {
		t.Fatalf("epoch bytes grew with store size: epoch %d moved %d B (store %d), epoch %d moved %d B (store %d)",
			first.Epoch, first.Bytes, first.StoreBefore, last.Epoch, last.Bytes, last.StoreBefore)
	}
	if res.StoreFinal < 6*12 {
		t.Fatalf("store final %d, want >= %d", res.StoreFinal, 6*12)
	}
}

// TestGossipSeedDeterminism: equal seeds replay identical protocol
// outcomes (rounds, bytes, detection latency).
func TestGossipSeedDeterminism(t *testing.T) {
	run := func() *GossipResult {
		res, err := RunGossip(context.Background(), GossipConfig{Nodes: 10, Fanout: 2, Equivocate: true, Epochs: 2, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.FirstDetection != b.FirstDetection || a.FullDetection != b.FullDetection {
		t.Fatalf("detection latency not deterministic: %d/%d vs %d/%d",
			a.FirstDetection, a.FullDetection, b.FirstDetection, b.FullDetection)
	}
	for i := range a.EpochStats {
		if a.EpochStats[i].Rounds != b.EpochStats[i].Rounds {
			t.Fatalf("epoch %d rounds differ: %d vs %d", i+1, a.EpochStats[i].Rounds, b.EpochStats[i].Rounds)
		}
	}
	if a.StoreFinal != b.StoreFinal {
		t.Fatalf("final store differs: %d vs %d", a.StoreFinal, b.StoreFinal)
	}
}

func TestGossipHonestRunNoConvictions(t *testing.T) {
	res, err := RunGossip(context.Background(), GossipConfig{Nodes: 8, Fanout: 2, Epochs: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected || res.FirstDetection != 0 {
		t.Fatalf("honest run produced a conviction: %+v", res)
	}
}
