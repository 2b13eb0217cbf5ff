package netsim

import (
	"context"
	"testing"
)

// TestRunTraceStitchesEveryChain is the E16 acceptance criterion in
// miniature: every injected equivocation must come back as a fully
// stitched cross-participant chain, detected within the gossip bound.
func TestRunTraceStitchesEveryChain(t *testing.T) {
	res, err := RunTrace(context.Background(), TraceConfig{Nodes: 56, Fanout: 3, Provers: 6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Chains) != 6 {
		t.Fatalf("chains = %d, want 6", len(res.Chains))
	}
	if !res.AllStitched {
		t.Fatalf("not all chains stitched: %+v", res.Chains)
	}
	if !res.AllWithinBound {
		t.Fatalf("detection exceeded bound %d: %+v", res.Bound, res.Chains)
	}
	for _, ch := range res.Chains {
		if ch.Participants < 2 {
			t.Fatalf("trace %s touched %d participants, want >= 2", ch.Trace, ch.Participants)
		}
		if ch.ConvictedNodes == 0 {
			t.Fatalf("trace %s: no node convicted prover %d", ch.Trace, ch.Prover)
		}
	}
	// The metric plane must agree with the event plane: summed
	// conviction counters across the fleet cover at least one conviction
	// per equivocating prover.
	if res.FleetConvictions < float64(res.Provers) {
		t.Fatalf("fleet conviction metric %v < provers %d", res.FleetConvictions, res.Provers)
	}
	if res.Fleet.Stitched < res.Provers {
		t.Fatalf("fleet stats stitched %d < provers %d", res.Fleet.Stitched, res.Provers)
	}
}

// TestRunTraceDeterministic: equal seeds replay identical detection
// outcomes (trace IDs differ — they are process-random by design).
func TestRunTraceDeterministic(t *testing.T) {
	a, err := RunTrace(context.Background(), TraceConfig{Nodes: 50, Fanout: 2, Provers: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTrace(context.Background(), TraceConfig{Nodes: 50, Fanout: 2, Provers: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds {
		t.Fatalf("rounds %d != %d for equal seeds", a.Rounds, b.Rounds)
	}
	for i := range a.Chains {
		if a.Chains[i].DetectRound != b.Chains[i].DetectRound {
			t.Fatalf("chain %d detect round %d != %d", i, a.Chains[i].DetectRound, b.Chains[i].DetectRound)
		}
	}
}
