package netsim

import (
	"context"
	"testing"
)

// TestRunQueryAlphaCorrectnessAtScale is the E13 acceptance check: under
// a concurrent mixed workload, every entitled query is granted and
// verifies, and every unentitled query is denied — no wrong denials, no
// wrong grants, no verification failures.
func TestRunQueryAlphaCorrectnessAtScale(t *testing.T) {
	res, err := RunQuery(context.Background(), QueryConfig{
		Prefixes: 64, Providers: 3, Clients: 4, QueriesPerClient: 50, Shards: 4, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Queries != 4*50 {
		t.Fatalf("issued %d queries, want %d", res.Queries, 4*50)
	}
	if res.WrongDenials != 0 || res.WrongGrants != 0 || res.VerifyFailures != 0 {
		t.Fatalf("α correctness violated: wrongDenials=%d wrongGrants=%d verifyFailures=%d",
			res.WrongDenials, res.WrongGrants, res.VerifyFailures)
	}
	if res.Verified == 0 || res.Denied == 0 {
		t.Fatalf("degenerate mix: verified=%d denied=%d", res.Verified, res.Denied)
	}
	if res.Verified+res.Denied != res.Queries {
		t.Fatalf("tally mismatch: %d + %d != %d", res.Verified, res.Denied, res.Queries)
	}
	if res.ServerServed != uint64(res.Verified) || res.ServerDenied != uint64(res.Denied) {
		t.Fatalf("server counters (served=%d denied=%d) disagree with clients (verified=%d denied=%d)",
			res.ServerServed, res.ServerDenied, res.Verified, res.Denied)
	}
	if res.P50 <= 0 || res.P99 < res.P50 || res.QPS <= 0 {
		t.Fatalf("implausible latency stats: p50=%s p99=%s qps=%.1f", res.P50, res.P99, res.QPS)
	}
}

// TestRunQueryDeterministicOutcomes pins seed-determinism of the query
// mix: equal seeds produce identical outcome counts.
func TestRunQueryDeterministicOutcomes(t *testing.T) {
	cfg := QueryConfig{Prefixes: 32, Providers: 2, Clients: 3, QueriesPerClient: 40, Shards: 2, Seed: 7}
	a, err := RunQuery(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunQuery(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Verified != b.Verified || a.Denied != b.Denied {
		t.Fatalf("outcomes not seed-deterministic: (%d,%d) vs (%d,%d)",
			a.Verified, a.Denied, b.Verified, b.Denied)
	}
}

func TestRunQueryContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunQuery(ctx, QueryConfig{Prefixes: 16, Clients: 2, QueriesPerClient: 10}); err == nil {
		t.Fatal("canceled run reported no error")
	}
}
