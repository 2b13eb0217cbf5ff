package netsim

import (
	"context"
	"testing"
)

// TestRunChurnDirtyShardInvariants: across every churn window, exactly
// the shards holding a changed prefix are rebuilt, and untouched shards
// keep their roots (re-signed, not recomputed).
func TestRunChurnDirtyShardInvariants(t *testing.T) {
	res, err := RunChurn(context.Background(), ChurnConfig{
		Prefixes: 256, Providers: 2, Events: 96, WindowEvents: 8,
		Shards: 16, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.DirtyMatchedPrediction {
		t.Fatal("rebuilt shard sets did not match the dirty-prefix prediction")
	}
	if !res.CleanRootsStable {
		t.Fatal("a clean shard's root changed across windows")
	}
	if len(res.Windows) != 1+96/8 {
		t.Fatalf("got %d windows, want %d", len(res.Windows), 1+96/8)
	}
	// The initial window rebuilds everything; churn windows must reuse at
	// least one shard somewhere (Zipf churn is concentrated).
	if res.ReusedShardSeals == 0 {
		t.Fatal("no shard seal was ever reused — dirty tracking is not saving work")
	}
	if res.RebuiltShardSeals == 0 {
		t.Fatal("no shard was ever rebuilt under churn")
	}
	if res.FinalTableSize <= 0 || res.FinalTableSize > 256 {
		t.Fatalf("final table size %d out of range", res.FinalTableSize)
	}
}

// TestRunChurnDeterministic: equal seeds replay identical protocol
// outcomes (per-window dirty sets and rebuilt shards).
func TestRunChurnDeterministic(t *testing.T) {
	run := func() *ChurnResult {
		res, err := RunChurn(context.Background(), ChurnConfig{
			Prefixes: 128, Providers: 2, Events: 96, WindowEvents: 32,
			Shards: 4, Seed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if len(a.Windows) != len(b.Windows) {
		t.Fatalf("window counts differ: %d vs %d", len(a.Windows), len(b.Windows))
	}
	for i := range a.Windows {
		wa, wb := a.Windows[i], b.Windows[i]
		if wa.DirtyPrefixes != wb.DirtyPrefixes || wa.Removed != wb.Removed ||
			len(wa.RebuiltShards) != len(wb.RebuiltShards) {
			t.Fatalf("window %d diverged: %+v vs %+v", i, wa, wb)
		}
		for j := range wa.RebuiltShards {
			if wa.RebuiltShards[j] != wb.RebuiltShards[j] {
				t.Fatalf("window %d rebuilt sets differ", i)
			}
		}
	}
	if a.FinalTableSize != b.FinalTableSize {
		t.Fatalf("final table sizes differ: %d vs %d", a.FinalTableSize, b.FinalTableSize)
	}
}

// TestRunChurnEquivocationConvicts: an equivocation injected mid-churn —
// while windows keep sealing and gossiping — is detected and every audit
// node convicts the prover by the end of the run.
func TestRunChurnEquivocationConvicts(t *testing.T) {
	res, err := RunChurn(context.Background(), ChurnConfig{
		Prefixes: 128, Providers: 2, Events: 192, WindowEvents: 32,
		Shards: 4, Seed: 3, Equivocate: true, Nodes: 8, Fanout: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Fatal("equivocation under churn was never detected")
	}
	if res.DetectionWindow == 0 {
		t.Fatal("conviction did not land while churn was still flowing")
	}
	if res.ConvictedNodes != 8 {
		t.Fatalf("%d/8 nodes convicted the prover", res.ConvictedNodes)
	}
	// Churn kept working: windows after the detection window still sealed.
	if len(res.Windows) != 1+192/32 {
		t.Fatalf("churn stalled: %d windows", len(res.Windows))
	}
}

// TestRunChurnHonestRunConvictsNobody: without the injected fault the
// audit network stays quiet — re-seals under churn must not read as
// equivocation.
func TestRunChurnHonestRunConvictsNobody(t *testing.T) {
	res, err := RunChurn(context.Background(), ChurnConfig{
		Prefixes: 64, Providers: 2, Events: 64, WindowEvents: 32,
		Shards: 4, Seed: 5, Nodes: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected || res.ConvictedNodes != 0 {
		t.Fatalf("honest churn produced convictions: %+v", res)
	}
}

// TestRunChurnMeasureFull exercises the baseline comparison path at a
// small size (the ≥5x acceptance claim is checked by E12 at full size).
func TestRunChurnMeasureFull(t *testing.T) {
	res, err := RunChurn(context.Background(), ChurnConfig{
		Prefixes: 256, Providers: 2, Events: 32, WindowEvents: 16,
		Shards: 4, Seed: 11, MeasureFull: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanFullReseal == 0 || res.MeanDirtySeal == 0 {
		t.Fatalf("baseline not measured: %+v", res)
	}
	if res.Speedup <= 1 {
		t.Fatalf("dirty re-seal slower than full reseal even at 6%% churn: speedup %.2f", res.Speedup)
	}
}
