package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"pvr/internal/netsim"
)

// E18 — the durable state subsystem: group-commit WAL, snapshots, and
// crash-restart recovery under an adversarial fault matrix. The run
// first drives the three fault scenarios (crash mid-window, stale
// window reuse, query replay against recovered nonce state) and aborts
// on any failing row — durability is a correctness property before it
// is a performance one. It then measures group-commit throughput
// against a one-fsync-per-record baseline across appender counts, and
// the open-time recovery wall time against WAL size. Performance phases
// run on a real directory (fsyncs hit the filesystem); benchgate reads
// speedup and recovery_ms as regression metrics.

// storeAppenders, when nonzero, collapses the E18 appender sweep to one
// count (set by -appenders; benchgate re-runs at the baseline's own
// concurrency).
var storeAppenders int

type storeRow struct {
	Appenders       int     `json:"appenders"`
	AppendsPerSec   float64 `json:"appends_per_sec"`
	BaselinePerSec  float64 `json:"baseline_appends_per_sec"`
	Speedup         float64 `json:"speedup"`
	CommitP50Us     float64 `json:"commit_p50_us"`
	CommitP99Us     float64 `json:"commit_p99_us"`
	RecoveryRecords int     `json:"recovery_records"`
	RecoveryMs      float64 `json:"recovery_ms"`
	ScenariosPassed int     `json:"scenarios_passed"`
	ScenariosTotal  int     `json:"scenarios_total"`
}

func runStore(seed int64) error {
	header("E18", "durable store: group-commit WAL, recovery, and the crash fault matrix")
	dir, err := os.MkdirTemp("", "pvrbench-store-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	cfg := netsim.StoreConfig{Dir: dir}
	if storeAppenders > 0 {
		// The recovery curve keeps its full sweep: it is cheap (async
		// appends), and benchgate compares at the baseline's largest size.
		cfg.Appenders = []int{storeAppenders}
	}
	res, err := netsim.RunStore(context.Background(), cfg)
	if err != nil {
		return err
	}

	fmt.Printf("%-26s %-6s %s\n", "scenario", "pass", "detail")
	for _, s := range res.Scenarios {
		pass := "ok"
		if !s.Pass {
			pass = "FAIL"
		}
		fmt.Printf("%-26s %-6s %s\n", s.Name, pass, s.Detail)
	}
	if res.ScenariosPassed != len(res.Scenarios) {
		return fmt.Errorf("store: %d/%d fault scenarios passed", res.ScenariosPassed, len(res.Scenarios))
	}

	fmt.Printf("\n%10s %14s %14s %9s %12s %12s\n",
		"appenders", "appends/s", "baseline/s", "speedup", "commit p50", "commit p99")
	for _, p := range res.Perf {
		fmt.Printf("%10d %14.0f %14.0f %8.1fx %12s %12s\n",
			p.Appenders, p.AppendsPerSec, p.BaselineAppendsPerSec, p.Speedup,
			p.CommitP50.Round(time.Microsecond), p.CommitP99.Round(time.Microsecond))
	}
	fmt.Printf("\n%10s %14s\n", "records", "recovery")
	for _, r := range res.Recovery {
		fmt.Printf("%10d %14s\n", r.Records, r.Elapsed.Round(time.Microsecond))
	}
	fmt.Println("  (baseline = sequential appends, one fsync per record, same backend)")

	if jsonOut != "" && jsonExp == "store" {
		n := len(res.Perf)
		if len(res.Recovery) > n {
			n = len(res.Recovery)
		}
		rows := make([]storeRow, n)
		for i := range rows {
			rows[i].ScenariosPassed = res.ScenariosPassed
			rows[i].ScenariosTotal = len(res.Scenarios)
			if i < len(res.Perf) {
				p := res.Perf[i]
				rows[i].Appenders = p.Appenders
				rows[i].AppendsPerSec = p.AppendsPerSec
				rows[i].BaselinePerSec = p.BaselineAppendsPerSec
				rows[i].Speedup = p.Speedup
				rows[i].CommitP50Us = float64(p.CommitP50) / 1e3
				rows[i].CommitP99Us = float64(p.CommitP99) / 1e3
			}
			if i < len(res.Recovery) {
				r := res.Recovery[i]
				rows[i].RecoveryRecords = r.Records
				rows[i].RecoveryMs = float64(r.Elapsed) / 1e6
			}
		}
		if err := writeJSONRows(rows); err != nil {
			return err
		}
	}
	return nil
}
