// Package updplane is the streaming update plane: the layer between a
// live feed of BGP announce/withdraw events and the sharded ProverEngine.
//
// The paper's cost argument (§3.8) amortizes signatures over batches of
// routing *updates* — security machinery that re-seals a static table
// each epoch cannot keep pace with continuous BGP churn. The plane closes
// that gap: events (synthetic trace churn or real bgp.Session UPDATE
// pumps) enter a bounded ingest queue, are applied through the bgp
// Adj-RIB-In and decision process, and accumulate a dirty-prefix set.
// At each commitment window (a batching timer, a size trigger, or an
// explicit Flush) the plane rebuilds only the changed per-prefix prover
// state — fanned out over a worker pool — and calls engine.SealDirty,
// which re-commits only the dirty shards and re-signs the clean ones.
// The resulting window seals flow to a sink (typically an auditnet
// Auditor) so equivocation detection keeps working under churn.
//
// Backpressure is explicit: Submit blocks when the queue is full,
// TrySubmit fails fast with ErrQueueFull. The plane is safe for
// concurrent submission from any number of feeds.
package updplane

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pvr/internal/aspath"
	"pvr/internal/bgp"
	"pvr/internal/core"
	"pvr/internal/engine"
	"pvr/internal/obs"
	"pvr/internal/prefix"
	"pvr/internal/route"
)

// Errors returned by the plane.
var (
	// ErrQueueFull reports that TrySubmit found the bounded ingest queue
	// at capacity (the backpressure signal).
	ErrQueueFull = errors.New("updplane: ingest queue full")
	// ErrClosed reports submission to a closed plane.
	ErrClosed = errors.New("updplane: plane closed")
)

// Event is one feed item: a neighbor announced a signed route, or
// withdrew its route for a prefix.
type Event struct {
	// Peer is the neighbor the event was learned from.
	Peer aspath.ASN
	// Withdraw selects the event kind. When true, Prefix is withdrawn by
	// Peer; otherwise Ann is Peer's new announcement.
	Withdraw bool
	// Prefix is the withdrawn prefix (withdraw events only).
	Prefix prefix.Prefix
	// Ann is the signed announcement (announce events only).
	Ann core.Announcement
	// Trace is the distributed trace context the event travels under. Zero
	// mints a fresh trace at apply time; a non-zero context (propagated
	// from an upstream participant) is continued, so the window's seals and
	// every downstream gossip event stitch back to the original ingestion.
	Trace obs.TraceContext
}

// AnnounceEvent builds an announce feed item.
func AnnounceEvent(peer aspath.ASN, ann core.Announcement) Event {
	return Event{Peer: peer, Ann: ann}
}

// WithdrawEvent builds a withdraw feed item.
func WithdrawEvent(peer aspath.ASN, pfx prefix.Prefix) Event {
	return Event{Peer: peer, Withdraw: true, Prefix: pfx}
}

// Traced returns a copy of the event carrying tc.
func (ev Event) Traced(tc obs.TraceContext) Event {
	ev.Trace = tc
	return ev
}

// WindowResult reports one sealed commitment window.
type WindowResult struct {
	// Window is the engine's window number for the new seal set.
	Window uint64
	// Events is how many feed events the window batched.
	Events int
	// DirtyPrefixes is how many distinct prefixes changed; Removed is how
	// many of them left the table entirely.
	DirtyPrefixes int
	Removed       int
	// Prefixes lists the changed prefixes, sorted — what a speaker must
	// re-advertise (or withdraw) with the window's fresh seals.
	Prefixes []prefix.Prefix
	// Rebuilt lists the shard indices whose Merkle batches were rebuilt;
	// the engine's remaining shards were merely re-signed.
	Rebuilt []uint32
	// TotalShards is the engine's shard count.
	TotalShards int
	// Seals is the full seal set of the new window, ascending by shard.
	Seals []*engine.Seal
	// ApplyLatency is the time spent rebuilding dirty per-prefix prover
	// state; SealLatency is the engine.SealDirty call alone.
	ApplyLatency time.Duration
	SealLatency  time.Duration
}

// Config parameterizes a Plane.
type Config struct {
	// Engine is the sharded prover the plane drives. Required; the caller
	// must have called BeginEpoch.
	Engine *engine.ProverEngine
	// Decision tunes the BGP decision process applied to the RIB.
	Decision bgp.DecisionConfig
	// QueueSize bounds the ingest queue (default 1024).
	QueueSize int
	// Window is the batching interval: a window seals at most this long
	// after its first event. Zero disables the timer — windows then seal
	// only on MaxBatch overflow or explicit Flush (the deterministic mode
	// the simulation drivers use).
	Window time.Duration
	// MaxBatch forces a window once this many events have accumulated
	// (default 4096).
	MaxBatch int
	// Workers sizes the pool that rebuilds dirty per-prefix prover state,
	// which Each also runs on (default GOMAXPROCS).
	Workers int
	// OnWindow, when non-nil, observes every sealed window, called
	// synchronously from the plane's loop (keep it fast; hand off to a
	// goroutine for slow sinks).
	OnWindow func(WindowResult)
	// Obs, when non-nil, exports the plane's metric families (event and
	// window counters, flush/apply/seal latency histograms, queue depth)
	// into the given registry.
	Obs *obs.Registry
	// Tracer, when non-nil, receives a WindowSealed event per flush.
	Tracer *obs.Tracer
}

func (c *Config) fill() error {
	if c.Engine == nil {
		return errors.New("updplane: Engine is required")
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 1024
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 4096
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return nil
}

// Stats is a point-in-time snapshot of plane counters. Every field is
// read from the plane's lock-free obs instruments, so a snapshot never
// contends with the worker pool and never tears: each value is one atomic
// (or folded-atomic) read.
type Stats struct {
	// EventsIn counts accepted submissions; EventsRejected counts
	// announcements whose signatures failed verification at window time.
	EventsIn       uint64
	EventsRejected uint64
	// Windows counts sealed windows; RebuiltShards and ReusedShards sum
	// the per-window shard outcomes.
	Windows       uint64
	RebuiltShards uint64
	ReusedShards  uint64
	// DirtyPrefixes sums per-window dirty prefix counts.
	DirtyPrefixes uint64
	// QueueHighWater is the deepest observed ingest queue.
	QueueHighWater int
	// SealP50/SealP99 summarize per-window SealDirty latency, extracted
	// from a fixed-bucket histogram (each is the upper bound of the bucket
	// holding that quantile, so P50/P99 may round up past SealMax, which
	// is exact).
	SealP50, SealP99, SealMax time.Duration
}

// Plane is the streaming update plane. Create with New, feed with
// Submit/TrySubmit (any goroutine), and stop with Close.
type Plane struct {
	cfg Config
	// queue holds pointers: an Event is over 200 B, and a buffer of values
	// would cost every plane that much per slot before it sees any event.
	queue chan *Event

	// Loop-owned routing state: the Adj-RIB-In of learned routes, the
	// decision-process Loc-RIB, and the signed announcements backing each
	// (peer, prefix) entry — what the prover actually commits over.
	adjIn   *bgp.AdjRIBIn
	loc     *bgp.LocRIB
	anns    map[prefix.Prefix]map[aspath.ASN]core.Announcement
	dirty   map[prefix.Prefix]bool
	traceOf map[prefix.Prefix]obs.TraceContext // last event trace per dirty prefix
	pending int

	flushCh chan chan flushReply
	closing chan struct{}
	done    chan struct{}
	// closeMu orders Submit against Close: submitters hold the read side
	// while enqueueing, Close takes the write side before signalling, so
	// every accepted event is in the queue before the loop's final drain
	// and "Submit returned nil" always means "the event was applied".
	closeMu sync.RWMutex
	closed  bool

	met *planeMetrics
	tr  *obs.Tracer

	// statsMu guards the loop-shared reference state below (the Loc-RIB
	// views and the last seal set); all counters and latency quantiles
	// live in met and are read lock-free.
	statsMu   sync.Mutex
	loopErr   error
	lastSeals []*engine.Seal
}

type flushReply struct {
	res WindowResult
	err error
}

// New builds and starts a plane; the loop goroutine runs until Close.
func New(cfg Config) (*Plane, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	p := &Plane{
		cfg:     cfg,
		queue:   make(chan *Event, cfg.QueueSize),
		adjIn:   bgp.NewAdjRIBIn(),
		loc:     bgp.NewLocRIB(),
		anns:    make(map[prefix.Prefix]map[aspath.ASN]core.Announcement),
		dirty:   make(map[prefix.Prefix]bool),
		traceOf: make(map[prefix.Prefix]obs.TraceContext),
		flushCh: make(chan chan flushReply),
		closing: make(chan struct{}),
		done:    make(chan struct{}),
		met:     newPlaneMetrics(cfg.Obs),
		tr:      cfg.Tracer,
	}
	if cfg.Obs != nil {
		p.registerGauges(cfg.Obs)
	}
	go p.loop()
	return p, nil
}

// Submit enqueues an event, blocking while the queue is full: the
// backpressure path a session pump should sit on. It fails only when the
// plane is closed. A blocking send while Close waits for the read lock
// cannot deadlock: the loop keeps draining until Close's signal, which
// cannot fire before this submitter releases the lock.
func (p *Plane) Submit(ev Event) error {
	p.closeMu.RLock()
	defer p.closeMu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	p.queue <- &ev
	p.noteDepth()
	return nil
}

// SubmitContext is Submit bounded by a context: it blocks while the queue
// is full but gives up with ctx.Err() when the context ends first. The
// same close-ordering guarantee as Submit applies to accepted events.
func (p *Plane) SubmitContext(ctx context.Context, ev Event) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p.closeMu.RLock()
	defer p.closeMu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	select {
	case p.queue <- &ev:
		p.noteDepth()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TrySubmit enqueues an event without blocking, returning ErrQueueFull
// when the bounded queue is at capacity.
func (p *Plane) TrySubmit(ev Event) error {
	p.closeMu.RLock()
	defer p.closeMu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	select {
	case p.queue <- &ev:
		p.noteDepth()
		return nil
	default:
		return ErrQueueFull
	}
}

func (p *Plane) noteDepth() {
	p.met.queueHW.SetMax(int64(len(p.queue)))
}

// Flush drains everything already submitted, seals a window, and returns
// its result. A flush with no pending events still seals (the engine
// re-signs every shard under a fresh window), so idle heartbeat windows
// are possible; drivers usually flush only after submitting work.
func (p *Plane) Flush() (WindowResult, error) {
	reply := make(chan flushReply, 1)
	select {
	case p.flushCh <- reply:
		r := <-reply
		return r.res, r.err
	case <-p.done:
		return WindowResult{}, ErrClosed
	}
}

// FlushContext is Flush bounded by a context: it returns ctx.Err() when
// the context ends before the plane's loop picks the flush up. A flush
// already accepted by the loop runs to completion.
func (p *Plane) FlushContext(ctx context.Context) (WindowResult, error) {
	reply := make(chan flushReply, 1)
	select {
	case p.flushCh <- reply:
		r := <-reply
		return r.res, r.err
	case <-ctx.Done():
		return WindowResult{}, ctx.Err()
	case <-p.done:
		return WindowResult{}, ErrClosed
	}
}

// Close stops the plane: pending events are applied, a final window is
// sealed if anything is pending, and the loop exits. Idempotent.
func (p *Plane) Close() error {
	p.closeMu.Lock()
	if !p.closed {
		p.closed = true
		close(p.closing)
	}
	p.closeMu.Unlock()
	<-p.done
	p.statsMu.Lock()
	defer p.statsMu.Unlock()
	return p.loopErr
}

// Stats returns a snapshot of the plane's counters, including seal
// latency quantiles over the windows sealed so far. It takes no locks:
// every field reads an atomic instrument, so Stats is safe (and cheap) to
// call from any goroutine at any rate while the worker pool runs.
func (p *Plane) Stats() Stats {
	return Stats{
		EventsIn:       p.met.events.Value(),
		EventsRejected: p.met.rejected.Value(),
		Windows:        p.met.windows.Value(),
		RebuiltShards:  p.met.rebuilt.Value(),
		ReusedShards:   p.met.resigned.Value(),
		DirtyPrefixes:  p.met.dirtyTotal.Value(),
		QueueHighWater: int(p.met.queueHW.Value()),
		SealP50:        p.met.sealSec.QuantileDuration(0.50),
		SealP99:        p.met.sealSec.QuantileDuration(0.99),
		SealMax:        p.met.sealSec.MaxDuration(),
	}
}

// Seals returns the most recent window's full seal set.
func (p *Plane) Seals() []*engine.Seal {
	p.statsMu.Lock()
	defer p.statsMu.Unlock()
	return p.lastSeals
}

// Best returns the decision-process winner currently installed for a
// prefix. It is loop-owned state: callers should treat it as advisory
// while the plane is running and exact after Close.
func (p *Plane) Best(pfx prefix.Prefix) (bgp.LearnedRoute, bool) {
	p.statsMu.Lock()
	defer p.statsMu.Unlock()
	return p.loc.Get(pfx)
}

// InstalledPrefixes reports the Loc-RIB size.
func (p *Plane) InstalledPrefixes() int {
	p.statsMu.Lock()
	defer p.statsMu.Unlock()
	return p.loc.Len()
}

// SessionFeed adapts a live bgp.Session update pump to the plane: the
// returned function is a bgp.SessionHooks.OnUpdate handler. authenticate
// converts an announced route (plus the update's attachments) into the
// signed announcement the prover ingests; returning an error drops that
// route and counts it as rejected. Withdrawals need no authentication —
// removing a route can only shrink what the prover vouches for.
func (p *Plane) SessionFeed(peer aspath.ASN, authenticate func(route.Route, bgp.Update) (core.Announcement, error)) func(bgp.Update) {
	return func(u bgp.Update) {
		for _, w := range u.Withdrawn {
			_ = p.Submit(WithdrawEvent(peer, w))
		}
		for _, r := range u.Announced {
			ann, err := authenticate(r, u)
			if err != nil {
				p.met.rejected.Inc()
				continue
			}
			_ = p.Submit(AnnounceEvent(peer, ann))
		}
	}
}

// loop owns the RIB, the dirty set, and the window cadence.
func (p *Plane) loop() {
	defer close(p.done)
	var timerC <-chan time.Time
	var timer *time.Timer
	if p.cfg.Window > 0 {
		timer = time.NewTimer(p.cfg.Window)
		timerC = timer.C
		defer timer.Stop()
	}
	for {
		select {
		case ev := <-p.queue:
			p.apply(ev)
			if p.pending >= p.cfg.MaxBatch {
				p.sealWindow()
			}
		case <-timerC:
			if p.pending > 0 {
				p.sealWindow()
			}
			timer.Reset(p.cfg.Window)
		case reply := <-p.flushCh:
			p.drainQueue()
			res, err := p.sealWindow()
			reply <- flushReply{res: res, err: err}
		case <-p.closing:
			p.drainQueue()
			if p.pending > 0 {
				p.sealWindow()
			}
			return
		}
	}
}

// drainQueue applies everything already enqueued without blocking.
func (p *Plane) drainQueue() {
	for {
		select {
		case ev := <-p.queue:
			p.apply(ev)
		default:
			return
		}
	}
}

// apply folds one event into the RIB and the dirty set. Announcements are
// recorded unverified here — signature checks run in parallel at window
// time, inside engine.ReplacePrefix.
func (p *Plane) apply(ev *Event) {
	p.met.events.Inc()
	p.pending++
	if ev.Trace.IsZero() {
		ev.Trace = obs.NewTraceContext()
	}
	if ev.Withdraw {
		if !p.adjIn.Remove(ev.Peer, ev.Prefix) {
			return // no such route; nothing changed
		}
		if m := p.anns[ev.Prefix]; m != nil {
			delete(m, ev.Peer)
			if len(m) == 0 {
				delete(p.anns, ev.Prefix)
			}
		}
		p.traceOf[ev.Prefix] = ev.Trace
		p.recompute(ev.Prefix)
		return
	}
	pfx := ev.Ann.Route.Prefix
	p.adjIn.Set(ev.Peer, ev.Ann.Route)
	m := p.anns[pfx]
	if m == nil {
		m = make(map[aspath.ASN]core.Announcement)
		p.anns[pfx] = m
	}
	m[ev.Peer] = ev.Ann
	p.traceOf[pfx] = ev.Trace
	p.recompute(pfx)
}

// recompute reruns the decision process for a prefix and marks it dirty.
func (p *Plane) recompute(pfx prefix.Prefix) {
	p.dirty[pfx] = true
	best, ok := p.cfg.Decision.SelectBest(p.adjIn.Candidates(pfx))
	p.statsMu.Lock()
	if ok {
		p.loc.Set(pfx, best)
	} else {
		p.loc.Remove(pfx)
	}
	p.statsMu.Unlock()
}

// sealWindow rebuilds the dirty per-prefix prover state across the worker
// pool, seals the dirty shards, and reports the window.
func (p *Plane) sealWindow() (WindowResult, error) {
	res := WindowResult{
		Events:        p.pending,
		DirtyPrefixes: len(p.dirty),
		TotalShards:   p.cfg.Engine.ShardCount(),
	}
	p.pending = 0
	// Deterministic work list: dirty prefixes, sorted.
	work := make([]prefix.Prefix, 0, len(p.dirty))
	for pfx := range p.dirty {
		work = append(work, pfx)
	}
	sort.Slice(work, func(i, j int) bool { return work[i].Compare(work[j]) < 0 })
	p.dirty = make(map[prefix.Prefix]bool)
	traces := p.traceOf
	p.traceOf = make(map[prefix.Prefix]obs.TraceContext)
	res.Prefixes = work

	t0 := time.Now()
	// Workers only read the table and call into the engine (shard-local
	// locking makes distinct prefixes safe); table mutations — eviction of
	// candidates whose signatures fail — are collected per prefix and
	// applied after the barrier, back on the loop goroutine.
	var (
		removed atomic.Int64
		evicted = make([][]aspath.ASN, len(work))
		errs    = make([]error, len(work))
	)
	p.Each(len(work), func(i int) {
		evicted[i], errs[i] = p.applyPrefix(work[i], traces[work[i]], &removed)
	})
	for _, err := range errs {
		if err != nil {
			p.failWindow(work, err)
			return res, err
		}
	}
	for i, peers := range evicted {
		pfx := work[i]
		for _, peer := range peers {
			p.adjIn.Remove(peer, pfx)
			if m := p.anns[pfx]; m != nil {
				delete(m, peer)
				if len(m) == 0 {
					delete(p.anns, pfx)
				}
			}
		}
		if len(peers) > 0 {
			// Refresh the decision process for the shrunken candidate set;
			// the engine already holds the surviving announcements, so the
			// prefix is not re-dirtied.
			best, ok := p.cfg.Decision.SelectBest(p.adjIn.Candidates(pfx))
			p.statsMu.Lock()
			if ok {
				p.loc.Set(pfx, best)
			} else {
				p.loc.Remove(pfx)
			}
			p.statsMu.Unlock()
		}
	}
	res.ApplyLatency = time.Since(t0)
	res.Removed = int(removed.Load())

	t0 = time.Now()
	seals, rebuilt, err := p.cfg.Engine.SealDirty()
	if err != nil {
		p.failWindow(work, err)
		return res, err
	}
	res.SealLatency = time.Since(t0)
	res.Window = p.cfg.Engine.Window()
	res.Seals = seals
	res.Rebuilt = rebuilt

	p.met.windows.Inc()
	p.met.rebuilt.Add(uint64(len(rebuilt)))
	p.met.resigned.Add(uint64(res.TotalShards - len(rebuilt)))
	p.met.dirtyTotal.Add(uint64(res.DirtyPrefixes))
	p.met.dirtySize.Observe(float64(res.DirtyPrefixes))
	p.met.applySec.ObserveDuration(res.ApplyLatency)
	p.met.sealSec.ObserveDuration(res.SealLatency)
	p.met.flushSec.ObserveDuration(res.ApplyLatency + res.SealLatency)
	p.tr.Record(obs.Event{
		Kind: obs.EvWindowSealed, Epoch: p.cfg.Engine.Epoch(), Window: res.Window,
		Note: fmt.Sprintf("%d events, %d dirty, %d/%d shards rebuilt",
			res.Events, res.DirtyPrefixes, len(rebuilt), res.TotalShards),
	})

	p.statsMu.Lock()
	p.lastSeals = seals
	p.statsMu.Unlock()

	if p.cfg.OnWindow != nil {
		p.cfg.OnWindow(res)
	}
	return res, nil
}

// Each runs fn(i) for every i in [0, n) on the plane's worker pool, at
// most Config.Workers goroutines, and returns once all calls have. The
// window's dirty prefixes are applied through it; an OnWindow callback may
// use it for per-prefix work of its own.
func (p *Plane) Each(n int, fn func(i int)) {
	workers := min(p.cfg.Workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				fn(i)
			}
		}(w)
	}
	wg.Wait()
}

// failWindow records a window failure and re-marks its prefixes dirty so
// the next window retries them — a failed window must not leave the
// published seals silently diverged from the RIB.
func (p *Plane) failWindow(work []prefix.Prefix, err error) {
	for _, pfx := range work {
		p.dirty[pfx] = true
	}
	// Count the re-marked prefixes as pending so the timer path retries
	// the window even if no new events arrive.
	p.pending += len(work)
	p.statsMu.Lock()
	if p.loopErr == nil {
		p.loopErr = err
	}
	p.statsMu.Unlock()
}

// applyPrefix pushes one dirty prefix's current candidate set into the
// engine, returning the peers whose candidates must be evicted because
// their signatures failed verification — one bad announcement must not
// wedge the prefix. It reads the table but never mutates it; the caller
// applies evictions after the worker barrier.
func (p *Plane) applyPrefix(pfx prefix.Prefix, tc obs.TraceContext, removed *atomic.Int64) ([]aspath.ASN, error) {
	cands := p.anns[pfx]
	if len(cands) == 0 {
		was, err := p.cfg.Engine.RemovePrefix(pfx, tc)
		if err != nil {
			return nil, fmt.Errorf("updplane: remove %s: %w", pfx, err)
		}
		if was {
			removed.Add(1)
		}
		return nil, nil
	}
	anns := make([]core.Announcement, 0, len(cands))
	peers := make([]aspath.ASN, 0, len(cands))
	for peer := range cands {
		peers = append(peers, peer)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	for _, peer := range peers {
		anns = append(anns, cands[peer])
	}
	err := p.cfg.Engine.ReplacePrefix(pfx, anns, tc)
	if err == nil {
		return nil, nil
	}
	// Salvage: identify candidates that fail verification on their own and
	// retry with the survivors.
	ver := p.cfg.Engine.Verifier()
	var bad []aspath.ASN
	good := make([]core.Announcement, 0, len(anns))
	for i, a := range anns {
		if verr := a.Verify(ver); verr != nil {
			p.met.rejected.Inc()
			bad = append(bad, peers[i])
			continue
		}
		good = append(good, a)
	}
	if len(bad) == 0 {
		// Nothing to evict: the failure was not a bad signature.
		return nil, fmt.Errorf("updplane: replace %s: %w", pfx, err)
	}
	if len(good) == 0 {
		was, err := p.cfg.Engine.RemovePrefix(pfx, tc)
		if err != nil {
			return nil, fmt.Errorf("updplane: remove %s: %w", pfx, err)
		}
		if was {
			removed.Add(1)
		}
		return bad, nil
	}
	if err := p.cfg.Engine.ReplacePrefix(pfx, good, tc); err != nil {
		return nil, fmt.Errorf("updplane: replace %s after eviction: %w", pfx, err)
	}
	return bad, nil
}
