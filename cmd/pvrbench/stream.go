package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"pvr/internal/netsim"
)

// E12 — the streaming update plane: incremental dirty-shard re-sealing
// under live BGP churn vs the full-reseal baseline (§3.8: amortize
// signatures over batches of *updates*, not static table re-seals).

type streamRow struct {
	Prefixes     int     `json:"prefixes"`
	Shards       int     `json:"shards"`
	ChurnPct     float64 `json:"churn_pct"`
	WindowEvents int     `json:"window_events"`
	Windows      int     `json:"windows"`
	UpdatesPerSc float64 `json:"updates_per_sec"`
	SealP50Ms    float64 `json:"seal_p50_ms"`
	SealP99Ms    float64 `json:"seal_p99_ms"`
	DirtyMs      float64 `json:"dirty_reseal_ms"`
	FullMs       float64 `json:"full_reseal_ms"`
	Speedup      float64 `json:"speedup"`
	RebuiltPerWn float64 `json:"rebuilt_shards_per_window"`
}

func runStream(seed int64) error {
	header("E12 (§3.8)", "streaming update plane: dirty-shard re-seal vs full re-seal under churn")
	nPfx := 10000
	if benchPrefixes > 0 {
		nPfx = benchPrefixes
	}
	const (
		providers = 2
		shards    = 8
		windows   = 5
	)
	fmt.Printf("%10s %8s %10s %12s %12s %12s %12s %10s %12s\n",
		"prefixes", "churn%", "upd/s", "seal p50", "seal p99", "dirty", "full", "speedup", "rebuilt/win")
	var rows []streamRow
	for _, churnPct := range []float64{0.1, 1, 5} {
		windowEvents := int(float64(nPfx) * churnPct / 100)
		if windowEvents < 1 {
			windowEvents = 1
		}
		res, err := netsim.RunChurn(context.Background(), netsim.ChurnConfig{
			Prefixes: nPfx, Providers: providers,
			Events: windows * windowEvents, WindowEvents: windowEvents,
			Shards: shards, Seed: seed, MeasureFull: true,
		})
		if err != nil {
			return err
		}
		if !res.DirtyMatchedPrediction || !res.CleanRootsStable {
			return fmt.Errorf("stream: dirty-shard invariants violated at %.1f%% churn", churnPct)
		}
		var p50, p99 time.Duration
		lats := make([]time.Duration, 0, len(res.Windows)-1)
		for _, w := range res.Windows[1:] {
			lats = append(lats, w.ApplyLatency+w.SealLatency)
		}
		if n := len(lats); n > 0 {
			sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
			p50, p99 = lats[n/2], lats[(n*99)/100]
		}
		rebuiltPerWin := float64(res.RebuiltShardSeals) / float64(len(res.Windows)-1)
		fmt.Printf("%10d %8.1f %10.0f %12s %12s %12s %12s %9.1fx %12.1f\n",
			nPfx, churnPct, res.UpdatesPerSec,
			p50.Round(time.Microsecond), p99.Round(time.Microsecond),
			res.MeanDirtySeal.Round(time.Microsecond), res.MeanFullReseal.Round(time.Microsecond),
			res.Speedup, rebuiltPerWin)
		rows = append(rows, streamRow{
			Prefixes: nPfx, Shards: shards, ChurnPct: churnPct,
			WindowEvents: windowEvents, Windows: len(res.Windows) - 1,
			UpdatesPerSc: res.UpdatesPerSec,
			SealP50Ms:    float64(p50) / 1e6, SealP99Ms: float64(p99) / 1e6,
			DirtyMs: float64(res.MeanDirtySeal) / 1e6,
			FullMs:  float64(res.MeanFullReseal) / 1e6,
			Speedup: res.Speedup, RebuiltPerWn: rebuiltPerWin,
		})
	}
	fmt.Println("  (full = re-ingest current table + SealEpoch; dirty = apply churn + SealDirty)")
	if jsonOut != "" && jsonExp == "stream" {
		if err := writeJSONRows(rows); err != nil {
			return err
		}
	}
	return nil
}
