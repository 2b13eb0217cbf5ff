// Command bench is the repository's benchmark: one composed fleet of real
// pvr.Participants over the in-process transport, four seeded workloads
// driven through the public Participant API, every output checked, and two
// kinds of run — a measured run for the end-to-end metrics and a traced run
// for the per-layer ones. See README.md.
//
//	bash bench/run.sh --workload churn_burst --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -workload all -seed 1 -out bench/out
//	bash bench/run.sh -agree 2
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"
)

// envelope says where and on what a result was taken.
type envelope struct {
	GoVersion    string  `json:"go_version"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NumCPU       int     `json:"nproc"`
	Seed         int64   `json:"seed"`
	Seconds      float64 `json:"seconds"`
	Transport    string  `json:"transport"`
	OpenLoopRate int     `json:"open_loop_rate_per_s"`
	LoadedRate   int     `json:"loaded_rate_per_s"`
	Commit       string  `json:"commit"`
}

func newEnvelope(o options) envelope {
	return envelope{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: o.seed, Seconds: o.seconds,
		// In-process pipes: no link, no kernel socket. Nothing here is a
		// claim about a network.
		Transport: "mem", OpenLoopRate: openLoopRate, LoadedRate: loadedRate, Commit: commit(),
	}
}

// commit is the VCS revision the binary was built from: the build info's
// stamp, else git's answer, else "unknown" (an exported tree has neither).
var commit = sync.OnceValue(func() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		if rev := strings.TrimSpace(string(out)); rev != "" {
			return rev
		}
	}
	return "unknown"
})

// runLimit bounds one run of one workload, set-ups and all.
const runLimit = 170 * time.Second

func main() {
	var (
		o        = options{scratch: scratchBase}
		workload = flag.String("workload", "all", "churn_burst, e2e_fresh, query_mix, priv_audit, or all")
		trace    = flag.Int("trace", 0, "0: measured run, end-to-end metrics; 1: traced run, per-layer metrics")
		agree    = flag.Int("agree", 0, "run every workload's measured run this many times and compare against BENCHMARK.json's bounds")
	)
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&o.seconds, "seconds", 20, "how long a run measures")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny sizes: a functional check, not a measurement")
	flag.StringVar(&o.out, "out", "bench/out", "directory for trace and result files")
	flag.Parse()
	if flag.NArg() > 0 || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}

	var err error
	switch {
	case *agree > 0:
		err = runAgree(o, *agree)
	case *workload == "all":
		err = runAll(o)
	default:
		err = runSingle(o, *workload, *trace == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// gate turns an incorrect report into an error: metrics of a run whose
// outputs were wrong are withheld.
func gate(rep *report) error {
	if !rep.Correct {
		return fmt.Errorf("%s: correctness gate: %d of %d operations failed: %s", rep.Workload, rep.Failed, rep.Attempted, rep.Error)
	}
	return nil
}

func runOne(o options, w *workload, traced bool) (*report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	rep, err := runWorkload(ctx, w, o, traced)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	return rep, gate(rep)
}

// runSingle is the benchmark contract's mode: one workload, one kind of
// run, and as the last line of standard output one JSON object.
func runSingle(o options, name string, traced bool) error {
	w := workloadByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	rep, err := runOne(o, w, traced)
	if err != nil {
		return err
	}
	rep.print()
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, make(map[string]value)}
	for name, v := range rep.Metrics {
		last.Metrics[name] = value{v.Value, v.Unit}
	}
	b, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// runAll runs every workload measured and then traced, prints every
// metric, and writes the results beside the traces.
func runAll(o options) error {
	var reports []*report
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rep, err := runOne(o, w, traced)
			if err != nil {
				return err
			}
			rep.print()
			reports = append(reports, rep)
		}
	}
	return writeJSON(o.out+"/results.json", reports)
}

// runAgree runs the measured run of every workload n times on the same
// code and prints, per end-to-end metric, the values, their spread and
// the bound BENCHMARK.json gives the metric. It fails if any two runs of a
// metric differ by more than its bound.
func runAgree(o options, n int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-agree reads the bounds from BENCHMARK.json in the working directory: %w", err)
	}
	var bm struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		return err
	}
	fmt.Printf("%-12s %-18s %8s %8s  values\n", "workload", "metric", "spread", "bound")
	var exceeded []string
	for _, w := range workloads {
		values := make(map[string][]float64)
		for i := 0; i < n; i++ {
			rep, err := runOne(o, w, false)
			if err != nil {
				return err
			}
			for name, v := range rep.Metrics {
				values[name] = append(values[name], v.Value)
			}
		}
		for _, m := range bm.EndToEnd {
			v := samples(values[m.Name]).sorted()
			spread := ratio(v[len(v)-1]-v[0], v.median())
			fmt.Printf("%-12s %-18s %8.4f %8.4f  %.4f\n", w.name, m.Name, spread, m.Bound, []float64(v))
			if spread > m.Bound {
				exceeded = append(exceeded, w.name+"/"+m.Name)
			}
		}
	}
	if len(exceeded) > 0 {
		return fmt.Errorf("runs of the same code disagree beyond the bound on %s", strings.Join(exceeded, ", "))
	}
	return nil
}
