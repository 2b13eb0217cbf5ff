package main

// E16 — distributed tracing: equivocations injected across the fleet
// must come back as fully stitched announce→seal→gossip→conviction
// chains, with every detection inside the ⌈log₂N⌉+2 anti-entropy bound.
// Unlike the other experiments this one is pass/fail: a chain that does
// not stitch, or a detection outside the bound, is an error, because the
// tracing plane's whole claim is that no conviction is unexplained.

import (
	"context"
	"fmt"
	"time"

	"pvr/internal/netsim"
)

type traceRow struct {
	Nodes   int `json:"nodes"`
	Fanout  int `json:"fanout"`
	Provers int `json:"provers"`
	// Bound is the detection bound ⌈log₂N⌉+2; Rounds how many
	// anti-entropy rounds the run actually took; MaxDetectRound the
	// slowest prover's conviction round.
	Bound          int `json:"bound"`
	Rounds         int `json:"rounds"`
	MaxDetectRound int `json:"max_detect_round"`
	// Stitched counts chains observed by ≥2 participants with the full
	// kind set (must equal Provers); FleetTraces / FleetStitched are the
	// collector's own rollup across every auditor + prover ring.
	Stitched      int `json:"stitched"`
	FleetTraces   int `json:"fleet_traces"`
	FleetStitched int `json:"fleet_stitched"`
	// FleetConvictions sums pvr_audit_convictions_total across the
	// fleet — the metric plane the event plane must agree with.
	FleetConvictions float64 `json:"fleet_convictions"`
	WallMs           float64 `json:"wall_ms"`
}

func runTrace(seed int64) error {
	header("E16", "distributed tracing: stitched equivocation chains vs fleet size (netsim)")
	sizes := []int{50, 64, 96}
	if gossipNodes > 0 {
		sizes = []int{gossipNodes}
	}
	fmt.Printf("%8s %8s %8s %8s %8s %12s %10s %12s %10s\n",
		"nodes", "provers", "bound", "rounds", "maxdet", "stitched", "traces", "convictions", "wall")
	rows := make([]traceRow, 0, len(sizes))
	for _, n := range sizes {
		start := time.Now()
		res, err := netsim.RunTrace(context.Background(), netsim.TraceConfig{Nodes: n, Fanout: 3, Seed: seed})
		if err != nil {
			return err
		}
		stitched, maxDet := 0, 0
		for _, ch := range res.Chains {
			if ch.Stitched {
				stitched++
			}
			if ch.DetectRound > maxDet {
				maxDet = ch.DetectRound
			}
		}
		row := traceRow{
			Nodes:            res.Nodes,
			Fanout:           res.Fanout,
			Provers:          res.Provers,
			Bound:            res.Bound,
			Rounds:           res.Rounds,
			MaxDetectRound:   maxDet,
			Stitched:         stitched,
			FleetTraces:      res.Fleet.Traces,
			FleetStitched:    res.Fleet.Stitched,
			FleetConvictions: res.FleetConvictions,
			WallMs:           float64(time.Since(start).Microseconds()) / 1e3,
		}
		rows = append(rows, row)
		fmt.Printf("%8d %8d %8d %8d %8d %7d/%-4d %10d %12.0f %9.1fms\n",
			row.Nodes, row.Provers, row.Bound, row.Rounds, row.MaxDetectRound,
			row.Stitched, row.Provers, row.FleetTraces, row.FleetConvictions, row.WallMs)
		if !res.AllStitched {
			return fmt.Errorf("E16: %d/%d chains stitched at %d nodes — a conviction went unexplained",
				stitched, res.Provers, n)
		}
		if !res.AllWithinBound {
			return fmt.Errorf("E16: detection round %d exceeded bound %d at %d nodes", maxDet, res.Bound, n)
		}
	}
	if jsonOut != "" && jsonExp == "trace" {
		return writeJSONRows(rows)
	}
	return nil
}
