package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// workload is one fixed traffic mix driven through the fleet. plan draws
// every input from the seed before anything is opened; sign turns the plan
// into signed announcements once the providers exist; prepare is the part
// of set-up that needs those (table load, warm-up); run is the measured
// phase and returns after about budget of wall time.
type workload struct {
	name string
	why  string
	spec func(smoke bool) fleetSpec
	plan func(rng *rand.Rand, seconds float64, smoke bool) any
	sign func(f *fleet, plan any) error
	// prepare may be nil. It runs once per set-up, inside setup_s.
	prepare func(ctx context.Context, f *fleet, plan any, out *outcome) error
	// run returns the end-state checks as a function to call once the
	// caller has taken its after-the-run readings: they ask further
	// questions of the fleet and must not count as load.
	run func(ctx context.Context, f *fleet, plan any, r runParams, out *outcome) (check func(context.Context), err error)
}

// runParams are the terms of one run of a workload on a fleet.
type runParams struct {
	budget time.Duration // wall time the run may measure for
	tr     *tracer       // nil: record no spans
	// rateOnly is set for the traced invocation's untraced baseline, which
	// is read for the primary operations' rate alone: a workload spends the
	// whole budget on the phase that rate comes from.
	rateOnly bool
}

var workloads = []*workload{churnBurst, e2eFresh, queryMix, privAudit}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// outcome is what one run of one workload on one fleet produced: operation
// counts, the raw samples behind every latency, and exact tallies.
type outcome struct {
	mu        sync.Mutex
	attempted int
	failed    int
	firstErr  error

	// begin and end bound the phase the primary operations ran in; wall is
	// its length.
	begin, end time.Time
	wall       time.Duration
	ops        int // primary operations completed in the phase
	// done lists the primary operations as intervals: what ops_per_s is
	// computed from, slice by slice.
	done []opInterval

	// lat holds raw latency samples by name, in the unit the name ends in.
	lat map[string]samples
	// count holds exact tallies by name.
	count map[string]float64
}

func newOutcome() *outcome {
	return &outcome{lat: make(map[string]samples), count: make(map[string]float64)}
}

// attempt records n attempted operations, all failed if err is non-nil.
func (o *outcome) attempt(n int, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.attempted += n
	if err != nil {
		o.failed += n
		if o.firstErr == nil {
			o.firstErr = err
		}
	}
}

// complete records n primary operations that ran from start to end.
func (o *outcome) complete(start, end time.Time, n int) {
	o.mu.Lock()
	o.ops += n
	o.done = append(o.done, opInterval{start, end, n})
	o.mu.Unlock()
}

// phase marks the primary operations' phase as running from begin to now.
func (o *outcome) phase(begin time.Time) {
	o.begin, o.end = begin, time.Now()
	o.wall = o.end.Sub(begin)
}

// opRates is the primary operations' rate in each whole slice of the
// phase, or over the whole phase when it is too short to slice.
func (o *outcome) opRates() samples {
	if r := sliceRates(o.done, o.begin, o.end, rateSlice); len(r) >= 4 {
		return r
	}
	return samples{ratio(float64(o.ops), o.wall.Seconds())}
}

func (o *outcome) observe(name string, v float64) {
	o.mu.Lock()
	o.lat[name] = append(o.lat[name], v)
	o.mu.Unlock()
}

func (o *outcome) add(name string, v float64) {
	o.mu.Lock()
	o.count[name] += v
	o.mu.Unlock()
}

// check records a correctness assertion about the run as one attempted
// operation: a false condition fails the run.
func (o *outcome) check(ok bool, format string, args ...any) {
	var err error
	if !ok {
		err = fmt.Errorf("check failed: "+format, args...)
	}
	o.attempt(1, err)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// nproc is the number of driver goroutines / concurrent connections the
// load generator may use: every CPU the process is allowed, and no more, so
// the generator never out-numbers the cores the fleet runs on.
func nproc() int { return runtime.GOMAXPROCS(0) }

// parallelFor runs fn(i) for i in [0,n) on nproc goroutines and returns the
// first error.
func parallelFor(n int, fn func(i int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	workers := nproc()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return first
}
