package main

import (
	"context"
	"fmt"
	"time"

	"pvr/internal/netsim"
)

// E13 — the disclosure query plane: on-demand α-gated verification over
// the wire (§2.2, §3.5–3.7). One prover serves its sealed table through
// the DISCLOSE/VIEW/DENY protocol while concurrent clients issue a mixed
// workload: entitled provider/promisee/observer queries (which must be
// granted and verify) and unentitled ones (which must be denied). The
// table reports query throughput and end-to-end latency quantiles; a run
// with any wrong grant, wrong denial, or verification failure aborts.

type queryRow struct {
	Prefixes  int     `json:"prefixes"`
	Providers int     `json:"providers"`
	Clients   int     `json:"clients"`
	Queries   int     `json:"queries"`
	Verified  int     `json:"verified"`
	Denied    int     `json:"denied"`
	QPS       float64 `json:"qps"`
	P50Us     float64 `json:"p50_us"`
	P99Us     float64 `json:"p99_us"`
	// Server-side answer latency from the plane's obs histogram and the
	// response-cache counters: the columns E15 reads to split wire cost
	// from serve cost.
	SrvP50Us  float64 `json:"srv_p50_us"`
	SrvP99Us  float64 `json:"srv_p99_us"`
	CacheHits uint64  `json:"cache_hits"`
	CacheMiss uint64  `json:"cache_misses"`
}

func runQuery(seed int64) error {
	header("E13 (§2.2)", "disclosure query plane: α-gated on-demand verification over the wire")
	sweep := []struct{ prefixes, clients int }{
		{512, 4}, {2048, 8}, {2048, 16},
	}
	if benchPrefixes > 0 {
		sweep = []struct{ prefixes, clients int }{{benchPrefixes, 4}}
	}
	const providers = 3
	fmt.Printf("%10s %10s %9s %9s %10s %10s %12s %12s %12s %9s\n",
		"prefixes", "clients", "queries", "denied", "qps", "verified", "p50", "p99", "srv p99", "cache hit")
	var rows []queryRow
	for _, sz := range sweep {
		res, err := netsim.RunQuery(context.Background(), netsim.QueryConfig{
			Prefixes: sz.prefixes, Providers: providers,
			Clients: sz.clients, QueriesPerClient: 200,
			Seed: seed,
		})
		if err != nil {
			return err
		}
		if res.WrongDenials != 0 || res.WrongGrants != 0 || res.VerifyFailures != 0 {
			return fmt.Errorf("query: α correctness violated at %d prefixes: wrongDenials=%d wrongGrants=%d verifyFailures=%d",
				sz.prefixes, res.WrongDenials, res.WrongGrants, res.VerifyFailures)
		}
		hitRatio := 0.0
		if lookups := res.CacheHits + res.CacheMisses; lookups > 0 {
			hitRatio = float64(res.CacheHits) / float64(lookups)
		}
		fmt.Printf("%10d %10d %9d %9d %10.0f %10d %12s %12s %12s %8.1f%%\n",
			res.Prefixes, res.Clients, res.Queries, res.Denied, res.QPS, res.Verified,
			res.P50.Round(time.Microsecond), res.P99.Round(time.Microsecond),
			res.ServerP99.Round(time.Microsecond), 100*hitRatio)
		rows = append(rows, queryRow{
			Prefixes: res.Prefixes, Providers: res.Providers, Clients: res.Clients,
			Queries: res.Queries, Verified: res.Verified, Denied: res.Denied,
			QPS:   res.QPS,
			P50Us: float64(res.P50) / 1e3, P99Us: float64(res.P99) / 1e3,
			SrvP50Us: float64(res.ServerP50) / 1e3, SrvP99Us: float64(res.ServerP99) / 1e3,
			CacheHits: res.CacheHits, CacheMiss: res.CacheMisses,
		})
	}
	fmt.Println("  (every unentitled query denied, every granted view verified; latency includes sign + round trip + verify)")
	if jsonOut != "" && jsonExp == "query" {
		if err := writeJSONRows(rows); err != nil {
			return err
		}
	}
	return nil
}
