package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// options are one invocation's settings.
type options struct {
	seed    int64
	seconds float64
	smoke   bool   // tiny sizes, one set-up: what the tests run
	out     string // where trace and result files go
	scratch string // where file-backed stores and other temporaries go
}

// setupReps is how many times a measured run sets the fleet up: setup_s is
// the median, which one slow Open (a page-cache miss, a late GC) cannot move.
const setupReps = 3

// metricValue is one reported number. n is the sample count behind it
// (1 for a rate or a tally).
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// report is the full result of one run of one workload.
type report struct {
	envelope
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Error     string                 `json:"error,omitempty"`
	WallS     float64                `json:"wall_s"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Latency is, per latency the run sampled, its median and the highest
	// percentile its sample supports (at least ten samples beyond it).
	Latency map[string]latencySummary `json:"latency,omitempty"`
	// LayerBusyMS is busy time per layer over the traced run.
	LayerBusyMS map[string]float64 `json:"layer_busy_ms,omitempty"`
	// SpanSelfMS is, per span name, the time inside the harness's spans
	// that no child span covers.
	SpanSelfMS map[string]float64 `json:"span_self_ms,omitempty"`
}

// latencySummary is one latency's raw samples read at two points. Tail is
// 0 when the sample is too small to support any tail percentile.
type latencySummary struct {
	P50       float64 `json:"p50"`
	Tail      float64 `json:"tail_percentile"`
	TailValue float64 `json:"tail_value"`
	N         int     `json:"n"`
}

// scratchBase is where the command keeps its temporaries: inside the
// checkout, beside the build.
const scratchBase = ".bench_build/tmp"

// scratchDir makes a fresh directory under base. Whoever asked for it
// removes it, and only it: base may hold other runs' directories.
func scratchDir(base, name string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, name+"-*")
}

// setUp builds one fleet and takes it through the workload's prepare step.
// It returns the fleet, the outcome prepare wrote to, and how long the
// set-up took, not counting the harness's own input signing.
func setUp(ctx context.Context, w *workload, spec fleetSpec, k *keys, plan any, sign bool, scratch string) (*fleet, *outcome, time.Duration, error) {
	t0 := time.Now()
	f, err := buildFleet(ctx, spec, k, scratch)
	if err != nil {
		return nil, nil, 0, err
	}
	var signing time.Duration
	if sign {
		ts := time.Now()
		if err := w.sign(f, plan); err != nil {
			f.Close()
			return nil, nil, 0, fmt.Errorf("signing inputs: %w", err)
		}
		signing = time.Since(ts)
	}
	out := newOutcome()
	if w.prepare != nil {
		if err := w.prepare(ctx, f, plan, out); err != nil {
			f.Close()
			return nil, nil, 0, fmt.Errorf("prepare: %w", err)
		}
	}
	return f, out, time.Since(t0) - signing, nil
}

// runWorkload runs one workload once, measured or traced, and reports.
func runWorkload(ctx context.Context, w *workload, o options, traced bool) (*report, error) {
	spec := w.spec(o.smoke)
	k, err := newKeys(spec)
	if err != nil {
		return nil, err
	}
	plan := w.plan(rand.New(rand.NewSource(o.seed)), o.seconds, o.smoke)
	budget := time.Duration(o.seconds * float64(time.Second))
	rep := &report{envelope: newEnvelope(o), Workload: w.name, Traced: traced, Metrics: make(map[string]metricValue)}
	start := time.Now()
	var out *outcome
	if traced {
		out, err = runTraced(ctx, w, spec, k, plan, budget, o, rep)
	} else {
		out, err = runMeasured(ctx, w, spec, k, plan, budget, o, rep)
	}
	if err != nil {
		return nil, err
	}
	rep.WallS = time.Since(start).Seconds()
	rep.Attempted, rep.Failed = out.attempted, out.failed
	rep.Correct = out.failed == 0 && out.attempted > 0
	if out.firstErr != nil {
		rep.Error = out.firstErr.Error()
	}
	for name, v := range rep.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			rep.Correct = false
			rep.Error = fmt.Sprintf("metric %s is %v (no samples?); first failure: %s", name, v.Value, rep.Error)
		}
	}
	return rep, nil
}

// runMeasured is the measured run: set up setupReps times, run once with
// nothing recorded but per-operation start and end stamps, and report the
// end-to-end metrics.
func runMeasured(ctx context.Context, w *workload, spec fleetSpec, k *keys, plan any, budget time.Duration, o options, rep *report) (*outcome, error) {
	reps := setupReps
	if o.smoke {
		reps = 1
	}
	var (
		setups samples
		f      *fleet
		out    *outcome
	)
	for i := 0; i < reps; i++ {
		if f != nil {
			if err := f.Close(); err != nil {
				return nil, err
			}
		}
		var (
			d   time.Duration
			err error
		)
		if f, out, d, err = setUp(ctx, w, spec, k, plan, i == 0, o.scratch); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	defer f.Close()
	check, err := w.run(ctx, f, plan, runParams{budget: budget}, out)
	if err != nil {
		return nil, err
	}
	heap := heapMB()
	check(ctx)

	rep.Metrics["setup_s"] = metricValue{setups.median(), "s", len(setups)}
	rates := out.opRates()
	rep.Metrics["ops_per_s"] = metricValue{rates.median(), "1/s", len(rates)}
	rep.Metrics["op_ms"] = metricValue{out.lat["op_ms"].median(), "ms", len(out.lat["op_ms"])}
	rep.Metrics["fresh_ms"] = metricValue{out.lat["fresh_ms"].median(), "ms", len(out.lat["fresh_ms"])}
	rep.Metrics["wire_bytes_per_op"] = metricValue{out.count["wire_bytes_per_op"], "B", 1}
	rep.Metrics["heap_mb"] = metricValue{heap, "MB", 1}
	rep.Latency = out.latencies()
	return out, nil
}

// runTraced is the traced run. A first fleet runs a quarter of the budget
// untraced for the baseline rate; a second runs the rest with spans on,
// between two snapshots of everything visible from outside. Then the layer
// probes run, and the trace is written out.
func runTraced(ctx context.Context, w *workload, spec fleetSpec, k *keys, plan any, budget time.Duration, o options, rep *report) (*outcome, error) {
	f, out, _, err := setUp(ctx, w, spec, k, plan, true, o.scratch)
	if err != nil {
		return nil, err
	}
	_, err = w.run(ctx, f, plan, runParams{budget: budget / 4, rateOnly: true}, out)
	cerr := f.Close()
	if err != nil || cerr != nil {
		return nil, fmt.Errorf("baseline run: %v, close: %v", err, cerr)
	}
	if out.failed > 0 {
		return out, nil
	}
	baseRate := ratio(float64(out.ops), out.wall.Seconds())

	if f, out, _, err = setUp(ctx, w, spec, k, plan, false, o.scratch); err != nil {
		return nil, err
	}
	defer f.Close()
	tr := newTracer()
	before := snapFleet(f)
	check, err := w.run(ctx, f, plan, runParams{budget: budget - budget/4, tr: tr}, out)
	if err != nil {
		return nil, err
	}
	after := snapFleet(f)
	check(ctx)

	iters := 2000
	if o.smoke {
		iters = 64
	}
	probed, err := runProbes(iters, o.scratch)
	if err != nil {
		return nil, err
	}
	m, busy := layerMetrics(f, before, after, out, probed, baseRate)
	for _, d := range perLayer {
		rep.Metrics[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	rep.LayerBusyMS, rep.SpanSelfMS, rep.Latency = busy, tr.selfTimes(), out.latencies()
	return out, writeJSON(filepath.Join(o.out, "trace-"+w.name+".json"), struct {
		*report
		Spans []span `json:"spans"`
	}{rep, tr.spans})
}

// latencies summarises every latency the run sampled.
func (o *outcome) latencies() map[string]latencySummary {
	l := make(map[string]latencySummary)
	for name, s := range o.lat {
		sum := latencySummary{P50: s.median(), N: len(s)}
		if p := highestPercentile(len(s)); p > 0 {
			sum.Tail, sum.TailValue = p, s.quantile(p)
		}
		l[name] = sum
	}
	return l
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// print writes every metric by name with unit and sample count.
func (r *report) print() {
	mode := "measured"
	if r.Traced {
		mode = "traced"
	}
	fmt.Printf("== %s (%s run, seed %d, %.0f s, transport %s, commit %s): attempted %d, failed %d\n",
		r.Workload, mode, r.Seed, r.Seconds, r.Transport, r.Commit, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.Metrics[name]
		fmt.Printf("%-40s %14.4f %-6s", name, v.Value, v.Unit)
		if v.N > 0 {
			fmt.Printf(" n=%d", v.N)
		}
		fmt.Println()
	}
	names = names[:0]
	for name := range r.Latency {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		l := r.Latency[name]
		fmt.Printf("latency %-32s %14.4f p50", name, l.P50)
		if l.Tail > 0 {
			fmt.Printf(" %14.4f p%g", l.TailValue, l.Tail*100)
		}
		fmt.Printf(" n=%d\n", l.N)
	}
	if r.Traced {
		fmt.Printf("layer busy ms: %s\nspan self ms:  %s\n", rounded(r.LayerBusyMS), rounded(r.SpanSelfMS))
	}
}

// rounded renders a name → ms map with whole numbers, names in order.
func rounded(m map[string]float64) string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s %.0f  ", name, m[name])
	}
	return b.String()
}
