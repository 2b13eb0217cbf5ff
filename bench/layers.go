package main

import (
	"math"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metricDef names one metric the benchmark emits. BENCHMARK.json lists the
// same names, units and directions; bench_test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of the measured run, on every workload. What
// each means on a given workload is in the README's glossary.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_ms", "ms", "lower"},
	{"fresh_ms", "ms", "lower"},
	{"wire_bytes_per_op", "B", "lower"},
	{"heap_mb", "MB", "lower"},
}

// perLayer are the metrics of the traced run: <layer>.<metric>, the layers
// being this repository's packages and "pvr" the composed Participant as
// the harness sees it. A metric that a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"pvr.ops_per_s_mean", "1/s", "higher"},
	{"pvr.op_p50_ms", "ms", "lower"},
	{"pvr.fresh_p50_ms", "ms", "lower"},
	{"pvr.submit_ms_per_window", "ms", "lower"},
	{"pvr.flush_ms_p50", "ms", "lower"},
	{"pvr.advertise_to_verified_ms_p50", "ms", "lower"},
	{"pvr.window_verified_p95_ms", "ms", "lower"},
	{"pvr.fresh_disclosure_p95_ms", "ms", "lower"},
	{"pvr.query_p99_us", "us", "lower"},
	{"pvr.loadgen_late_p99_us", "us", "lower"},
	{"pvr.loaded_query_p50_us", "us", "lower"},
	{"pvr.loaded_query_p99_us", "us", "lower"},
	{"pvr.cpu_us_per_update", "us", "lower"},
	{"pvr.cpu_us_per_query", "us", "lower"},
	{"pvr.cpu_busy_frac", "1", "lower"},
	{"pvr.allocs_per_update", "count", "lower"},
	{"pvr.allocs_per_query", "count", "lower"},
	{"pvr.gc_pause_ms_total", "ms", "lower"},
	{"pvr.accounted_frac", "1", "higher"},
	{"pvr.trace_overhead_frac", "1", "lower"},

	{"netx.frames_per_update", "count", "lower"},
	{"netx.bytes_per_update", "B", "lower"},
	{"netx.frames_per_query", "count", "lower"},
	{"netx.bytes_per_query", "B", "lower"},
	{"netx.dials_per_query", "count", "lower"},
	{"netx.dial_us_p50", "us", "lower"},
	{"netx.pool_miss_frac", "1", "lower"},
	{"netx.probe_frame_ns", "ns", "lower"},
	{"netx.probe_frame_allocs", "count", "lower"},

	{"bgp.updates_out_per_window", "count", "lower"},
	{"bgp.updates_in_total", "count", "higher"},
	{"bgp.probe_update_encode_ns", "ns", "lower"},

	{"sigs.batch_verify_busy_ms", "ms", "lower"},
	{"sigs.batch_size_mean", "count", "higher"},
	{"sigs.memo_hit_frac", "1", "higher"},
	{"sigs.probe_batch64_ns_per_sig", "ns", "lower"},
	{"sigs.probe_single_verify_ns", "ns", "lower"},
	{"sigs.probe_sign_ns", "ns", "lower"},

	{"merkle.probe_build_ns_per_leaf", "ns", "lower"},
	{"merkle.probe_verify_proof_ns", "ns", "lower"},

	{"engine.accept_busy_ms", "ms", "lower"},
	{"engine.seal_busy_ms", "ms", "lower"},
	{"engine.shard_seal_ms_mean", "ms", "lower"},
	{"engine.shards_rebuilt_per_window", "count", "lower"},
	{"engine.shards_resigned_per_window", "count", "lower"},
	{"engine.probe_accept_ns_per_event", "ns", "lower"},

	{"updplane.events_total", "count", "higher"},
	{"updplane.events_rejected_total", "count", "lower"},
	{"updplane.queue_high_water", "count", "lower"},
	{"updplane.apply_busy_ms", "ms", "lower"},
	{"updplane.seal_busy_ms", "ms", "lower"},
	{"updplane.flush_busy_ms", "ms", "lower"},
	{"updplane.dirty_prefixes_per_window", "count", "lower"},
	{"updplane.probe_window_ns_per_event", "ns", "lower"},

	{"store.commits_total", "count", "lower"},
	{"store.commit_busy_ms", "ms", "lower"},
	{"store.commit_ms_mean", "ms", "lower"},
	{"store.records_per_commit", "count", "higher"},
	{"store.wal_bytes_per_window", "B", "lower"},
	{"store.snapshots_total", "count", "lower"},
	{"store.errors_total", "count", "lower"},
	{"store.probe_append_sync_us", "us", "lower"},

	{"auditnet.round_ms_mean", "ms", "lower"},
	{"auditnet.bytes_per_round", "B", "lower"},
	{"auditnet.statements_new_per_round", "count", "lower"},
	{"auditnet.rejected_total", "count", "lower"},
	{"auditnet.convictions_total", "count", "lower"},
	{"auditnet.probe_round_us", "us", "lower"},

	{"discplane.served_total", "count", "higher"},
	{"discplane.denied_total", "count", "lower"},
	{"discplane.serve_busy_ms", "ms", "lower"},
	{"discplane.serve_us_mean", "us", "lower"},
	{"discplane.cache_hit_frac", "1", "higher"},
	{"discplane.cache_evictions_total", "count", "lower"},
	{"discplane.client_side_us_mean", "us", "lower"},
	{"discplane.bg_queries_per_s", "1/s", "higher"},
	{"discplane.bg_retries_total", "count", "lower"},
	{"discplane.probe_fetch_us", "us", "lower"},

	{"privplane.proof_gen_ms_mean", "ms", "lower"},
	{"privplane.proof_verify_ms_mean", "ms", "lower"},
	{"privplane.proofs_built_total", "count", "lower"},
	{"privplane.proof_cache_hit_frac", "1", "higher"},
	{"privplane.ring_sign_us_mean", "us", "lower"},
	{"privplane.ring_verify_us_mean", "us", "lower"},
	{"privplane.ring_rejects_total", "count", "lower"},
	{"privplane.commitment_bytes", "B", "lower"},
	{"privplane.zk_seal_ms_per_prefix", "ms", "lower"},
	{"privplane.audit_proof_bytes", "B", "lower"},
	{"privplane.probe_prove_ms", "ms", "lower"},
	{"privplane.probe_verify_ms", "ms", "lower"},
	{"privplane.probe_ring_sign_us", "us", "lower"},
	{"privplane.probe_ring_verify_us", "us", "lower"},
}

// fleetSnap is everything the harness can read about a running fleet from
// outside at one instant: each Participant's metric registry, the wire
// counters, the Go heap and the process's CPU time.
type fleetSnap struct {
	at      time.Time
	a, b, c map[string]float64 // A, B, C alone
	all     map[string]float64 // summed over every participant
	io      map[string]ioCounts
	mem     runtime.MemStats
	cpu     time.Duration
}

func snapFleet(f *fleet) *fleetSnap {
	s := &fleetSnap{
		at: time.Now(),
		a:  f.A.Metrics().Snapshot(), b: f.B.Metrics().Snapshot(), c: f.C.Metrics().Snapshot(),
		all: make(map[string]float64), io: make(map[string]ioCounts),
	}
	for _, p := range f.all() {
		for k, v := range p.Metrics().Snapshot() {
			// netx's I/O counters are process-wide and appear in every
			// registry: count them once, from A's.
			if p == f.A || !strings.HasPrefix(k, "pvr_netx_") {
				s.all[k] += v
			}
		}
	}
	for _, addr := range []string{addrBGP, addrGossip, addrDisc} {
		s.io[addr] = f.tr.plane(addr).counts()
	}
	runtime.ReadMemStats(&s.mem)
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return s
}

// delta is after − before for one registry; histogram _sum and _count are
// exact, and nothing here reads a bucket.
type delta map[string]float64

func diff(after, before map[string]float64) delta {
	d := make(delta, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// meanOf is a histogram's exact mean over the interval.
func (d delta) meanOf(family string) float64 { return ratio(d[family+"_sum"], d[family+"_count"]) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives every per-layer metric from what was seen from
// outside: the before/after snapshots of the traced run, its outcome, the
// set-up's outcome, the probes, and the untraced baseline rate.
func layerMetrics(f *fleet, before, after *fleetSnap, out *outcome, probed map[string]float64, baseRate float64) (map[string]float64, map[string]float64) {
	a, b, c, all := diff(after.a, before.a), diff(after.b, before.b), diff(after.c, before.c), diff(after.all, before.all)
	bgp, gossip, disc := after.io[addrBGP].sub(before.io[addrBGP]), after.io[addrGossip].sub(before.io[addrGossip]), after.io[addrDisc].sub(before.io[addrDisc])
	wall := after.at.Sub(before.at)
	cpu := after.cpu - before.cpu
	mallocs := float64(after.mem.Mallocs - before.mem.Mallocs)
	windows := out.count["windows"]
	queries := a["pvr_disc_queries_total"]
	var updates float64
	if windows > 0 {
		updates = a["pvr_upd_events_total"]
	}
	// Time and allocations are charged to the workload's own operation:
	// updates where there are windows, queries otherwise. (On e2e_fresh the
	// readers' share rides on the updates; that mix is the workload.)
	perUpdate := func(v float64) float64 { return ratio(v, updates) }
	perQuery := func(v float64) float64 {
		if updates > 0 {
			return 0
		}
		return ratio(v, queries)
	}

	m := map[string]float64{
		"pvr.ops_per_s_mean":               ratio(float64(out.ops), out.wall.Seconds()),
		"pvr.op_p50_ms":                    out.lat["op_ms"].median(),
		"pvr.fresh_p50_ms":                 out.lat["fresh_ms"].median(),
		"pvr.submit_ms_per_window":         out.lat["submit_ms"].mean(),
		"pvr.flush_ms_p50":                 out.lat["flush_ms"].median(),
		"pvr.advertise_to_verified_ms_p50": out.lat["advertise_to_verified_ms"].median(),
		"pvr.window_verified_p95_ms":       out.lat["window_verified_ms"].quantile(0.95),
		"pvr.fresh_disclosure_p95_ms":      out.lat["fresh_disclosure_ms"].quantile(0.95),
		"pvr.query_p99_us":                 out.lat["open_query_us"].quantile(0.99),
		"pvr.loadgen_late_p99_us":          out.lat["loadgen_late_us"].quantile(0.99),
		"pvr.loaded_query_p50_us":          out.lat["loaded_query_us"].median(),
		"pvr.loaded_query_p99_us":          out.lat["loaded_query_us"].quantile(0.99),
		"pvr.cpu_us_per_update":            perUpdate(us(cpu)),
		"pvr.cpu_us_per_query":             perQuery(us(cpu)),
		"pvr.cpu_busy_frac":                ratio(cpu.Seconds(), wall.Seconds()*float64(nproc())),
		"pvr.allocs_per_update":            perUpdate(mallocs),
		"pvr.allocs_per_query":             perQuery(mallocs),
		"pvr.gc_pause_ms_total":            float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6,
		"pvr.trace_overhead_frac":          ratio(baseRate, ratio(float64(out.ops), out.wall.Seconds())) - 1,

		"netx.frames_per_update": perUpdate(float64(bgp.frames)),
		"netx.bytes_per_update":  perUpdate(float64(bgp.bytes)),
		"netx.frames_per_query":  ratio(float64(disc.frames), queries),
		"netx.bytes_per_query":   ratio(float64(disc.bytes), queries),
		"netx.dials_per_query":   ratio(float64(disc.dials), queries),
		"netx.dial_us_p50":       f.tr.plane(addrDisc).dialMedian(),
		"netx.pool_miss_frac":    ratio(a["pvr_netx_pool_misses_total"], a["pvr_netx_pool_gets_total"]),

		"bgp.updates_out_per_window": ratio(a["pvr_bgp_updates_out_total"], windows),
		"bgp.updates_in_total":       b["pvr_bgp_updates_in_total"],

		"sigs.batch_verify_busy_ms": a["pvr_engine_batch_verify_seconds_sum"] * 1e3,
		"sigs.batch_size_mean":      a.meanOf("pvr_engine_accept_batch_size"),
		"sigs.memo_hit_frac":        ratio(all["pvr_sigmemo_hits_total"], all["pvr_sigmemo_hits_total"]+all["pvr_sigmemo_misses_total"]),

		"engine.accept_busy_ms":             (a["pvr_engine_accept_seconds_sum"] + a["pvr_engine_accept_batch_seconds_sum"]) * 1e3,
		"engine.seal_busy_ms":               a["pvr_engine_seal_seconds_sum"] * 1e3,
		"engine.shard_seal_ms_mean":         a.meanOf("pvr_engine_shard_seal_seconds") * 1e3,
		"engine.shards_rebuilt_per_window":  ratio(a["pvr_engine_shards_rebuilt_total"], windows),
		"engine.shards_resigned_per_window": ratio(a["pvr_engine_shards_resigned_total"], windows),

		"updplane.events_total":              a["pvr_upd_events_total"],
		"updplane.events_rejected_total":     a["pvr_upd_events_rejected_total"],
		"updplane.queue_high_water":          after.a["pvr_upd_queue_high_water"],
		"updplane.apply_busy_ms":             a["pvr_upd_window_apply_seconds_sum"] * 1e3,
		"updplane.seal_busy_ms":              a["pvr_upd_window_seal_seconds_sum"] * 1e3,
		"updplane.flush_busy_ms":             a["pvr_upd_window_flush_seconds_sum"] * 1e3,
		"updplane.dirty_prefixes_per_window": ratio(a["pvr_upd_dirty_prefixes_total"], a["pvr_upd_windows_total"]),

		"store.commits_total":        a["pvr_store_commits_total"],
		"store.commit_busy_ms":       a["pvr_store_commit_seconds_sum"] * 1e3,
		"store.commit_ms_mean":       a.meanOf("pvr_store_commit_seconds") * 1e3,
		"store.records_per_commit":   a.meanOf("pvr_store_commit_batch_records"),
		"store.wal_bytes_per_window": ratio(a["pvr_store_wal_bytes_total"], windows),
		"store.snapshots_total":      a["pvr_store_snapshots_total"],
		"store.errors_total":         a["pvr_store_errors_total"],

		// C starts every round, so its registry times the round end to end.
		"auditnet.round_ms_mean":            c.meanOf("pvr_audit_round_seconds") * 1e3,
		"auditnet.bytes_per_round":          ratio(float64(gossip.bytes), c["pvr_audit_rounds_total"]),
		"auditnet.statements_new_per_round": ratio(c["pvr_audit_statements_new_total"], c["pvr_audit_rounds_total"]),
		"auditnet.rejected_total":           all["pvr_audit_rejected_total"],
		"auditnet.convictions_total":        all["pvr_audit_convictions_total"],

		"discplane.served_total":          a["pvr_disc_served_total"],
		"discplane.denied_total":          a["pvr_disc_denied_total"],
		"discplane.serve_busy_ms":         a["pvr_disc_latency_seconds_sum"] * 1e3,
		"discplane.serve_us_mean":         a.meanOf("pvr_disc_latency_seconds") * 1e6,
		"discplane.cache_hit_frac":        ratio(a["pvr_disc_cache_hits_total"], a["pvr_disc_cache_hits_total"]+a["pvr_disc_cache_misses_total"]),
		"discplane.cache_evictions_total": a["pvr_disc_cache_evictions_total"],
		"discplane.bg_queries_per_s":      ratio(out.count["bg_queries"], out.wall.Seconds()),
		"discplane.bg_retries_total":      out.count["bg_retries"],

		"privplane.proof_gen_ms_mean":     a.meanOf("pvr_priv_proof_gen_seconds") * 1e3,
		"privplane.proof_verify_ms_mean":  all.meanOf("pvr_priv_proof_verify_seconds") * 1e3,
		"privplane.proofs_built_total":    a["pvr_priv_proofs_built_total"],
		"privplane.proof_cache_hit_frac":  ratio(a["pvr_priv_proof_cache_hits_total"], a["pvr_priv_proof_cache_hits_total"]+a["pvr_priv_proofs_built_total"]),
		"privplane.ring_sign_us_mean":     all.meanOf("pvr_priv_ring_sign_seconds") * 1e6,
		"privplane.ring_verify_us_mean":   a.meanOf("pvr_priv_ring_verify_seconds") * 1e6,
		"privplane.ring_rejects_total":    a["pvr_priv_ring_rejects_total"],
		"privplane.zk_seal_ms_per_prefix": out.count["zk_seal_ms_per_prefix"],
		"privplane.audit_proof_bytes":     out.count["audit_proof_bytes"],
	}
	// What the client spends outside A's handler and outside the dial:
	// signing the query, the wire both ways, decoding and verifying the view.
	if q := out.lat["closed_query_us"]; len(q) > 0 {
		m["discplane.client_side_us_mean"] = q.mean() - m["discplane.serve_us_mean"] - ratio(us(time.Duration(disc.dialNanos)), float64(disc.dials))
	}
	for k, v := range probed {
		m[k] = v
	}

	// Busy time per layer over the traced run, from the layers' own
	// histograms (exact sums) with nested layers subtracted from their
	// callers, plus the harness's spans for what no histogram covers: B's
	// receive-and-verify of re-advertised routes.
	privGen := a["pvr_priv_proof_gen_seconds_sum"] * 1e3
	busy := map[string]float64{
		"updplane":   m["updplane.flush_busy_ms"] - m["engine.seal_busy_ms"],
		"engine":     m["engine.seal_busy_ms"] + m["engine.accept_busy_ms"] - m["sigs.batch_verify_busy_ms"],
		"sigs":       m["sigs.batch_verify_busy_ms"],
		"store":      m["store.commit_busy_ms"],
		"auditnet":   c["pvr_audit_round_seconds_sum"] * 1e3,
		"discplane":  m["discplane.serve_busy_ms"] - privGen,
		"privplane":  privGen + (all["pvr_priv_proof_verify_seconds_sum"]+all["pvr_priv_ring_sign_seconds_sum"]+a["pvr_priv_ring_verify_seconds_sum"])*1e3,
		"bgp+verify": out.lat["advertise_to_verified_ms"].sum(),
	}
	var sum float64
	for _, v := range busy {
		sum += v
	}
	m["pvr.accounted_frac"] = ratio(sum, ms(wall))
	for _, d := range perLayer {
		if v, ok := m[d.name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			m[d.name] = 0 // not exercised by this workload
		}
	}
	return m, busy
}

// heapMB is the live heap of the whole process (the whole fleet) after a
// forced collection — two, because a sync.Pool gives its contents up only
// over two cycles, and whether the last pooled buffers happened to survive
// one is not something to report.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
