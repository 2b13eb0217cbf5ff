package netsim

import (
	"context"
	"testing"
)

// TestRunStore runs the E18 fault matrix at a reduced scale on the
// in-memory backend and requires every scenario row to pass.
func TestRunStore(t *testing.T) {
	res, err := RunStore(context.Background(), StoreConfig{
		Appenders:          []int{1, 4},
		AppendsPerAppender: 32,
		RecoverySizes:      []int{200, 400},
		Windows:            2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Scenarios) != 3 {
		t.Fatalf("got %d scenario rows, want 3", len(res.Scenarios))
	}
	for _, s := range res.Scenarios {
		if !s.Pass {
			t.Errorf("scenario %s failed: %s", s.Name, s.Detail)
		} else {
			t.Logf("scenario %s: %s", s.Name, s.Detail)
		}
	}
	if res.ScenariosPassed != len(res.Scenarios) {
		t.Fatalf("%d/%d scenarios passed", res.ScenariosPassed, len(res.Scenarios))
	}
	if len(res.Perf) != 2 {
		t.Fatalf("got %d perf rows, want 2", len(res.Perf))
	}
	for _, p := range res.Perf {
		if p.AppendsPerSec <= 0 || p.BaselineAppendsPerSec <= 0 {
			t.Errorf("appenders=%d: non-positive throughput %+v", p.Appenders, p)
		}
	}
	if len(res.Recovery) != 2 {
		t.Fatalf("got %d recovery rows, want 2", len(res.Recovery))
	}
	for _, r := range res.Recovery {
		if r.Elapsed <= 0 {
			t.Errorf("recovery of %d records reported no elapsed time", r.Records)
		}
	}
}
