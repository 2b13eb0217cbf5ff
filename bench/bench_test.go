package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func smokeOptions(t *testing.T) options {
	t.Helper()
	return options{seed: 1, seconds: 0.3, smoke: true, out: t.TempDir(), scratch: t.TempDir()}
}

// Every workload at smoke size, measured and traced: each run must pass its
// own correctness gate and emit every metric of its kind exactly once,
// finite, with the catalogue's unit (and a sample count, where the metric
// is taken from samples).
func TestSmokeWorkloadsEmitEveryMetric(t *testing.T) {
	o := smokeOptions(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			rep, err := runWorkload(ctx, w, o, traced)
			cancel()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if err := gate(rep); err != nil {
				t.Fatal(err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, catalogue has %d", w.name, traced, len(rep.Metrics), len(want))
			}
			for _, d := range want {
				v, ok := rep.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s not emitted", w.name, traced, d.name)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: %s = %v", w.name, d.name, v.Value)
				case v.Unit != d.unit:
					t.Errorf("%s: %s in %q, want %q", w.name, d.name, v.Unit, d.unit)
				case !traced && (v.N < 1 || v.Value <= 0):
					t.Errorf("%s: end-to-end %s = %v from %d samples; must be positive", w.name, d.name, v.Value, v.N)
				}
			}
			if traced {
				if _, err := os.Stat(o.out + "/trace-" + w.name + ".json"); err != nil {
					t.Errorf("%s: traced run wrote no trace: %v", w.name, err)
				}
				if rep.Metrics["auditnet.convictions_total"].Value != 0 {
					t.Errorf("%s: an honest AS was convicted", w.name)
				}
			}
		}
	}
}

// A failed check must fail the whole run: the gate is what makes the
// command exit non-zero and withhold its metrics.
func TestGateRejectsAFailedCheck(t *testing.T) {
	out := newOutcome()
	out.attempt(10, nil)
	out.check(false, "U was granted a promisee view")
	rep := &report{Workload: "query_mix", Attempted: out.attempted, Failed: out.failed, Correct: out.failed == 0}
	if gate(rep) == nil {
		t.Fatal("a run with a failed check passed the gate")
	}
	if out.attempted != 11 || out.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 11 and 1", out.attempted, out.failed)
	}
}

// BENCHMARK.json and the program must name the same workloads and metrics.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bm struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bm.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.name || bm.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, bm.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			// The contract allows 0.25. The timings stay under it at 0.20,
			// three times the widest spread seen on the reference box;
			// setup_s alone has it all: three set-ups are all a run has
			// time for. The exact-ish counts are far tighter.
			widest := 0.20
			if d.name == "setup_s" {
				widest = 0.25
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound <= 0 || *g.Bound > widest)) {
				t.Errorf("%s %s: bound %v", kind, g.Name, g.Bound)
			}
		}
	}
	same("end_to_end", bm.EndToEnd, endToEnd, true)
	same("per_layer", bm.PerLayer, perLayer, false)
}

func TestExactQuantiles(t *testing.T) {
	if got := (samples{4, 1, 3, 2}).median(); got != 2.5 {
		t.Errorf("median of an even sample = %v, want the mean of the middle pair, 2.5", got)
	}
	if got := (samples{9, 1, 5}).median(); got != 5 {
		t.Errorf("median of an odd sample = %v, want 5", got)
	}
	s := make(samples, 1000)
	for i := range s {
		s[i] = float64(999 - i)
	}
	if got := s.quantile(0.99); math.Abs(got-989.01) > 1e-9 {
		t.Errorf("p99 of 0..999 = %v, want 989.01", got)
	}
	if !math.IsNaN((samples{}).median()) {
		t.Error("an empty sample has a median")
	}
	// The highest percentile with at least ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{39, 0}, {40, 0.75}, {100, 0.90}, {200, 0.95}, {1000, 0.99}, {10000, 0.999}, {100000, 0.9999}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// ops_per_s is the median of the rates over slices of the phase: an
// operation that straddles a slice boundary counts towards both slices in
// proportion, and a stalled slice does not move the median.
func TestSliceRates(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	done := []opInterval{
		{at(0), at(100), 10},    // slice 0
		{at(50), at(150), 10},   // half in slice 0, half in slice 1
		{at(150), at(200), 5},   // slice 1
		{at(200), at(300), 1},   // slice 2: a stall
		{at(300), at(400), 10},  // slice 3
		{at(390), at(1000), 99}, // mostly beyond the phase: no whole slice there
	}
	got := sliceRates(done, at(0), at(399), 100*time.Millisecond)
	want := samples{150, 100, 10}
	if len(got) != len(want) {
		t.Fatalf("%d slices %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-6 {
			t.Errorf("slice %d: %v ops/s, want %v", i, got[i], want[i])
		}
	}
	if m := got.median(); m != 100 {
		t.Errorf("median rate %v, want 100: the stalled slice must not move it", m)
	}
}

// An open loop charges a stall to the queries that were due during it: with
// one connection stalled for 50 ms, a query due 10 ms into the stall waits
// out the other 40 ms, and queries due after the backlog drained are served
// at once.
func TestOpenLoopChargesAStallToTheQueriesDueDuringIt(t *testing.T) {
	const (
		stall   = 50 * time.Millisecond
		stalled = 20 // the query that stalls, due at 20 ms
	)
	due := make([]time.Duration, 120)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	lat, late := openLoop(due, 1, func(i int) {
		if i == stalled {
			time.Sleep(stall)
		}
	})
	for i := range due {
		wantMin := us(due[stalled]+stall-due[i]) - 1 // what is left of the stall when query i falls due
		switch {
		case i < stalled-5 || i > 100:
			if lat[i] > 20e3 {
				t.Errorf("query %d, due outside the stall, took %.0f µs", i, lat[i])
			}
		case i == stalled:
			if lat[i] < us(stall) {
				t.Errorf("the stalled query took %.0f µs, less than the stall", lat[i])
			}
		case i > stalled && due[i] < due[stalled]+stall-5*time.Millisecond:
			if lat[i] < wantMin || late[i] < wantMin {
				t.Errorf("query %d was due %v into a %v stall but waited only %.0f µs (sent %.0f µs late)",
					i, due[i]-due[stalled], stall, lat[i], late[i])
			}
		}
	}
}
