package pvr

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"pvr/internal/bgp"
	"pvr/internal/netx"
	"pvr/internal/obs"
	"pvr/internal/obs/fleet"
	"pvr/internal/store"
)

// TraceEvent is one entry of the participant's epoch-trace ring: a typed
// lifecycle event (announce accepted, shard sealed, seal gossiped,
// disclosure served, conviction recorded, …) stamped with its epoch,
// window, and prefix. See TraceEvents and the /trace debug endpoint.
type TraceEvent = obs.Event

// TraceID is the 128-bit distributed-trace identity minted where an
// announcement enters the system and propagated on every wire hop
// (gossip, sealed BGP re-advertisement, disclosure queries).
type TraceID = obs.TraceID

// SpanID is the 64-bit per-hop span identity within a trace.
type SpanID = obs.SpanID

// TraceContext is a (TraceID, SpanID) pair — the unit that propagates
// across participants. See Query.Trace and Disclosure.Trace.
type TraceContext = obs.TraceContext

// NewTraceContext mints a fresh root trace context (obs.NewTraceContext).
func NewTraceContext() TraceContext { return obs.NewTraceContext() }

// traceRingSize bounds the participant's lifecycle-event ring. At ~100 B
// an event this is a few hundred KB — enough to hold the full
// announce→seal→gossip→disclose story for recent windows without ever
// growing.
const traceRingSize = 4096

// historyRingSize bounds the participant's metric time series: at the
// default one-sample-per-window cadence this covers hours of run time
// in a few MB.
const historyRingSize = 512

// initObs stands up the participant's observability plane: the metric
// registry every subsystem exports into, the lifecycle-event tracer, and
// the participant-level counters that used to be bare atomics. Called
// once from Open, before any build step.
func (p *Participant) initObs() {
	p.obsReg = obs.NewRegistry()
	p.tracer = obs.NewTracer(traceRingSize)
	p.history = fleet.NewHistory(historyRingSize)
	p.bgpMet = bgp.NewMetrics(p.obsReg)
	// The pvr_store_* families register unconditionally like every other
	// plane's; the state store and the evidence ledger share this set.
	p.storeMet = store.NewMetrics(p.obsReg)
	p.verified = obs.NewCounter(p.obsReg, "pvr_routes_verified_total", "learned routes whose sealed commitment chain verified")
	p.rejected = obs.NewCounter(p.obsReg, "pvr_routes_rejected_total", "learned routes rejected (verification failure or convicted peer)")
	p.sessionsOpened = obs.NewCounter(p.obsReg, "pvr_sessions_opened_total", "BGP sessions ever admitted, both directions")
	p.queriesSent = obs.NewCounter(p.obsReg, "pvr_disc_client_queries_total", "disclosure queries issued as a client")
	obs.NewGaugeFunc(p.obsReg, "pvr_bgp_sessions", "live BGP sessions, both directions", func() float64 {
		return float64(p.sessions.len())
	})
	obs.NewCounterFunc(p.obsReg, "pvr_sigmemo_hits_total", "verification verdicts (signatures, vector proofs) answered by the verdict memo", func() float64 {
		return float64(p.verdicts.Hits())
	})
	obs.NewCounterFunc(p.obsReg, "pvr_sigmemo_misses_total", "verification verdicts that ran the full check", func() float64 {
		return float64(p.verdicts.Misses())
	})
	// netx counters are process totals (every participant and every dialer
	// in the process shares the frame and buffer-pool paths), exported here
	// so one scrape shows the wire alongside the planes.
	netx.RegisterMetrics(p.obsReg)
}

// Metrics exposes the participant's metric registry, into which every
// plane (engine, update plane, audit network, disclosure query plane,
// framing layer, BGP sessions) exports its families.
func (p *Participant) Metrics() *obs.Registry { return p.obsReg }

// WriteMetrics writes the participant's full metric state to w in the
// Prometheus text exposition format.
func (p *Participant) WriteMetrics(w io.Writer) error { return p.obsReg.WritePrometheus(w) }

// TraceEvents returns up to n of the most recent lifecycle events,
// oldest first. n <= 0 returns everything the ring holds.
func (p *Participant) TraceEvents(n int) []TraceEvent {
	if n <= 0 {
		n = traceRingSize
	}
	return p.tracer.Recent(n)
}

// TraceEventsSince returns every retained event with Seq >= seq plus the
// cursor to pass next time — the incremental pull a fleet collector
// polls with (/trace?since= serves the same pair over HTTP). If the
// ring wrapped past seq the result starts at the oldest retained event;
// compare the first event's Seq against the cursor to detect the gap.
func (p *Participant) TraceEventsSince(seq uint64) ([]TraceEvent, uint64) {
	return p.tracer.Since(seq)
}

// FleetSnapshot captures this participant for a fleet collector: events
// since the cursor, the next cursor, and a flat metric snapshot. See
// FleetSource for the polling adapter.
func (p *Participant) FleetSnapshot(since uint64) fleet.Snapshot {
	evs, next := p.tracer.Since(since)
	return fleet.Snapshot{
		Participant: p.asn.String(),
		Events:      evs,
		Next:        next,
		Metrics:     p.obsReg.Snapshot(),
	}
}

// FleetSource adapts the participant into a fleet.Source, so an
// in-process collector (netsim, tests) can poll it alongside
// HTTP-scraped daemons.
func (p *Participant) FleetSource() *fleet.TracerSource {
	return fleet.NewTracerSource(p.asn.String(), p.tracer, p.obsReg)
}

// SampleMetrics records one point of the participant's metric registry
// into its bounded history ring (served at /metrics/history). Run
// samples automatically once per seal window; deterministic drivers
// call this directly.
func (p *Participant) SampleMetrics() {
	p.history.Record(time.Now(), p.obsReg.Snapshot())
}

// MetricsHistory returns the sampled metric time series, oldest first.
func (p *Participant) MetricsHistory() []fleet.Point { return p.history.Points() }

// WriteMetricsHistory streams the sampled series as JSONL (one point
// per line) — what pvrbench dumps next to its BENCH_*.json files.
func (p *Participant) WriteMetricsHistory(w io.Writer) error { return p.history.WriteJSONL(w) }

// DebugHandler returns the participant's debug surface, ready to mount on
// an http.Server (cmd/pvrd serves it under -debug-listen):
//
//	/metrics          Prometheus text exposition of every plane's families
//	/metrics/history  sampled metric time series as a JSON array
//	                  (?format=jsonl streams one point per line)
//	/trace            most recent lifecycle events as a JSON array (?n=
//	                  caps); with ?since=<cursor> an incremental envelope
//	                  {"next": N, "events": [...]} for fleet collectors
//	/debug/pprof/     the standard runtime profiles
//
// The handler holds no locks across requests and is safe to serve while
// the participant runs full tilt.
func (p *Participant) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = p.obsReg.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics/history", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "jsonl" {
			w.Header().Set("Content-Type", "application/x-ndjson")
			_ = p.history.WriteJSONL(w)
			return
		}
		pts := p.MetricsHistory()
		if pts == nil {
			pts = []fleet.Point{}
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(pts)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		if s := r.URL.Query().Get("since"); s != "" {
			seq, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				http.Error(w, "bad since: "+err.Error(), http.StatusBadRequest)
				return
			}
			evs, next := p.TraceEventsSince(seq)
			if evs == nil {
				evs = []TraceEvent{}
			}
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(struct {
				Next   uint64       `json:"next"`
				Events []TraceEvent `json:"events"`
			}{next, evs})
			return
		}
		n := 0
		if s := r.URL.Query().Get("n"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil {
				http.Error(w, "bad n: "+err.Error(), http.StatusBadRequest)
				return
			}
			n = v
		}
		evs := p.TraceEvents(n)
		if evs == nil {
			evs = []TraceEvent{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(evs)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
