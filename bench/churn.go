package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"pvr"
)

// churnEvent is one planned update: provider 0 announces prefix pi with an
// AS path of pathLen hops, or (pathLen 0) withdraws its route for it.
type churnEvent struct {
	pi, pathLen int
}

// churnPlan is a sequence of windows of planned events and, after sign,
// the signed announcement for every distinct (prefix, path length) in it.
// Feed items are put together window by window as they are submitted: held
// ready-made they would be tens of MB of the heap this benchmark reports.
type churnPlan struct {
	windows [][]churnEvent
	signed  map[churnEvent]pvr.Announcement
	// bg is the e2e_fresh background readers' prefix sequence.
	bg []int
}

// Sizes of the two update workloads. windowsPerSecond bounds how many
// windows are planned and signed for a run: about 2× to 2.5× what the seed
// commit sustains, so a later speed-up still runs for the full time.
const (
	churnPrefixes         = 8192
	churnWindowEvents     = 400
	churnWindowsPerSecond = 40
	freshWindowEvents     = 16
	freshWindowsPerSecond = 150
	withdrawShare         = 0.2
	maxPathLen            = 8
)

func updateSpec(store bool) func(bool) fleetSpec {
	return func(smoke bool) fleetSpec {
		s := fleetSpec{prefixes: churnPrefixes, providers: 1, store: store}
		if smoke {
			s.prefixes = 128
		}
		return s
	}
}

// planChurn draws windows of events with Zipf-popular prefixes (a few hot
// prefixes flap a lot, as in observed BGP dynamics): an event withdraws
// with probability withdrawShare if the provider currently announces the
// prefix, and otherwise announces a route of 2..maxPathLen hops.
func planChurn(rng *rand.Rand, prefixes, windows, perWindow int, withdraw float64) *churnPlan {
	zipf := rand.NewZipf(rng, 1.1, 8, uint64(prefixes-1))
	announced := make(map[int]bool)
	p := &churnPlan{windows: make([][]churnEvent, windows)}
	for w := range p.windows {
		evs := make([]churnEvent, perWindow)
		for i := range evs {
			pi := int(zipf.Uint64())
			if announced[pi] && rng.Float64() < withdraw {
				delete(announced, pi)
				evs[i] = churnEvent{pi: pi}
				continue
			}
			announced[pi] = true
			evs[i] = churnEvent{pi: pi, pathLen: 2 + rng.Intn(maxPathLen-1)}
		}
		p.windows[w] = evs
	}
	return p
}

func signChurn(f *fleet, plan any) error {
	p := plan.(*churnPlan)
	p.signed = make(map[churnEvent]pvr.Announcement)
	var distinct []churnEvent
	for _, evs := range p.windows {
		for _, ev := range evs {
			if _, seen := p.signed[ev]; !seen && ev.pathLen > 0 {
				p.signed[ev] = pvr.Announcement{}
				distinct = append(distinct, ev)
			}
		}
	}
	anns := make([]pvr.Announcement, len(distinct))
	err := parallelFor(len(distinct), func(i int) (err error) {
		anns[i], err = f.announce(0, distinct[i].pi, distinct[i].pathLen)
		return err
	})
	for i, ev := range distinct {
		p.signed[ev] = anns[i]
	}
	return err
}

// feed turns one planned window into feed items.
func (p *churnPlan) feed(f *fleet, w int) []pvr.UpdateEvent {
	out := make([]pvr.UpdateEvent, len(p.windows[w]))
	for i, ev := range p.windows[w] {
		if ev.pathLen == 0 {
			out[i] = pvr.WithdrawEvent(asnP, f.pfxs[ev.pi])
		} else {
			out[i] = pvr.AnnounceEvent(asnP, p.signed[ev])
		}
	}
	return out
}

// tableModel is the harness's own account of A's table, kept from the
// inputs it generated: per prefix, the path length the promisee must see
// win. A prefix starts with the originated route (A's synthetic upstream,
// one hop); the provider's first announcement replaces that candidate set,
// and its withdrawal removes the prefix.
type tableModel struct {
	index   map[pvr.Prefix]int
	pathLen []int // 0 = not in the table
}

func newTableModel(pfxs []pvr.Prefix) *tableModel {
	m := &tableModel{index: make(map[pvr.Prefix]int, len(pfxs)), pathLen: make([]int, len(pfxs))}
	for i, p := range pfxs {
		m.index[p] = i
		m.pathLen[i] = 1
	}
	return m
}

func (m *tableModel) apply(evs []churnEvent) {
	for _, ev := range evs {
		m.pathLen[ev.pi] = ev.pathLen
	}
}

// updateDriver pushes planned windows through A and follows each one
// downstream. It is the whole of churn_burst and the writer half of
// e2e_fresh.
type updateDriver struct {
	f     *fleet
	plan  *churnPlan
	model *tableModel
	tr    *tracer
	out   *outcome

	next int // next planned window

	// lastWindow is A's newest sealed window and lastDirty the prefixes it
	// changed that are still in the table.
	lastWindow uint64
	lastDirty  []int
}

func newUpdateDriver(f *fleet, plan *churnPlan, tr *tracer, out *outcome) *updateDriver {
	return &updateDriver{
		f: f, plan: plan, model: newTableModel(f.pfxs), tr: tr, out: out,
	}
}

// window submits the next planned window, seals it, and waits until B has
// verified or withdrawn every route A re-advertised. It returns the time
// of the first Submit.
func (d *updateDriver) window(ctx context.Context) (time.Time, error) {
	w := d.next
	d.next++
	evs := d.plan.feed(d.f, w)
	endWindow := d.tr.start("window", "", w)
	defer endWindow()

	t0 := time.Now()
	end := d.tr.start("submit", "window", w)
	for _, ev := range evs {
		if err := d.f.A.Submit(ctx, ev); err != nil {
			end()
			return t0, fmt.Errorf("window %d submit: %w", w, err)
		}
	}
	end()
	tSub := time.Now()

	end = d.tr.start("flush", "window", w)
	res, err := d.f.A.Flush(ctx)
	end()
	if err != nil {
		return t0, fmt.Errorf("window %d flush: %w", w, err)
	}
	tFlush := time.Now()
	if res.Events != len(evs) {
		return t0, fmt.Errorf("window %d sealed %d events, submitted %d", w, res.Events, len(evs))
	}

	// What B must now see: one UPDATE per dirty prefix, a verified route
	// for each that the model says is still in the table.
	d.model.apply(d.plan.windows[w])
	d.lastWindow, d.lastDirty = res.Window, d.lastDirty[:0]
	for _, pfx := range res.Prefixes {
		if pi := d.model.index[pfx]; d.model.pathLen[pi] > 0 {
			d.lastDirty = append(d.lastDirty, pi)
		}
	}
	end = d.tr.start("verify_wait", "window", w)
	err = d.f.waitVerified(ctx, uint64(len(d.lastDirty)), uint64(len(res.Prefixes)))
	end()
	if err != nil {
		return t0, fmt.Errorf("window %d: %w", w, err)
	}
	tVer := time.Now()

	d.out.observe("submit_ms", ms(tSub.Sub(t0)))
	d.out.observe("flush_ms", ms(tFlush.Sub(tSub)))
	d.out.observe("sealed_ms", ms(tFlush.Sub(t0)))
	d.out.observe("advertise_to_verified_ms", ms(tVer.Sub(tFlush)))
	d.out.observe("window_verified_ms", ms(tVer.Sub(t0)))
	d.out.add("dirty_prefixes", float64(len(res.Prefixes)))
	d.out.add("windows", 1)
	return t0, nil
}

// settle checks the end state against the table model (B's counters were
// checked window by window).
// It runs after the measured phase: its queries are checks, not load.
func (d *updateDriver) settle(ctx context.Context) {
	// The promisee's winning path must be the shortest the harness fed in.
	rng := rand.New(rand.NewSource(int64(d.next)))
	for i := 0; i < 64; i++ {
		pi := rng.Intn(len(d.f.pfxs))
		if i < len(d.lastDirty) {
			pi = d.lastDirty[i] // the newest window's prefixes first
		}
		want := d.model.pathLen[pi]
		disc, err := d.f.B.RequestDisclosure(ctx, addrDisc, d.f.pfxs[pi], epoch)
		switch {
		case want == 0:
			d.out.check(errors.Is(err, pvr.ErrNotFound), "withdrawn %s: got %v, want ErrNotFound", d.f.pfxs[pi], err)
		case err != nil:
			d.out.check(false, "promisee view of %s: %v", d.f.pfxs[pi], err)
		default:
			got := 0
			if disc.Promisee != nil && disc.Promisee.Winner != nil {
				got = disc.Promisee.Winner.Route.PathLen()
			}
			d.out.check(got == want, "promisee view of %s: winning path %d hops, inputs imply %d", d.f.pfxs[pi], got, want)
		}
	}
	d.out.check(d.f.convictions() == 0, "%d convictions in an all-honest fleet", d.f.convictions())
}

var churnBurst = &workload{
	name: "churn_burst",
	why:  "400-event windows over 8192 prefixes, no store, no queries: per-event cost (sigs, engine accept, bgp, netx, B's verification) dominates",
	spec: updateSpec(false),
	plan: func(rng *rand.Rand, seconds float64, smoke bool) any {
		if smoke {
			return planChurn(rng, 128, 3, 24, withdrawShare)
		}
		return planChurn(rng, churnPrefixes, int(seconds*churnWindowsPerSecond)+1, churnWindowEvents, withdrawShare)
	},
	sign: signChurn,
	run: func(ctx context.Context, f *fleet, plan any, r runParams, out *outcome) (func(context.Context), error) {
		d := newUpdateDriver(f, plan.(*churnPlan), r.tr, out)
		io0 := f.tr.plane(addrBGP).counts()
		start := time.Now()
		for d.next < len(d.plan.windows) && time.Since(start) < r.budget {
			n := len(d.plan.windows[d.next])
			t0, err := d.window(ctx)
			out.attempt(n, err)
			if err != nil {
				break
			}
			out.complete(t0, time.Now(), n)
		}
		out.phase(start)
		out.lat["op_ms"] = out.lat["window_verified_ms"]
		out.lat["fresh_ms"] = out.lat["sealed_ms"]
		out.count["wire_bytes_per_op"] = ratio(float64(f.tr.plane(addrBGP).counts().sub(io0).bytes), float64(out.ops))
		return d.settle, nil
	},
}

var e2eFresh = &workload{
	name: "e2e_fresh",
	why:  "16-event windows on a file-backed store, each followed to a fresh promisee disclosure, a gossip round and an observer view, beside a reader stream: per-window fixed cost dominates",
	spec: updateSpec(true),
	plan: func(rng *rand.Rand, seconds float64, smoke bool) any {
		prefixes, windows, per := churnPrefixes, int(seconds*freshWindowsPerSecond)+1, freshWindowEvents
		if smoke {
			prefixes, windows, per = 128, 3, 4
		}
		p := planChurn(rng, prefixes, windows, per, 0) // announcements only
		p.bg = make([]int, 4096)
		for i := range p.bg {
			p.bg[i] = rng.Intn(prefixes)
		}
		return p
	},
	sign: signChurn,
	run:  runFresh,
}

// runFresh is the E19 path: every window is followed from its first Submit
// to a verified promisee disclosure at the new window, then gossiped to the
// auditor and shown to an observer, while a second goroutine keeps a
// closed-loop reader stream going over (mostly clean) random prefixes.
func runFresh(ctx context.Context, f *fleet, plan any, r runParams, out *outcome) (func(context.Context), error) {
	p := plan.(*churnPlan)
	d := newUpdateDriver(f, p, r.tr, out)

	var (
		stop    atomic.Bool
		wg      sync.WaitGroup
		bgDone  int
		bgRetry int
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			pfx := f.pfxs[p.bg[i%len(p.bg)]]
			var err error
			// A shard is unsealed between a window's first mutation and
			// its seal; a reader that lands there is told "not found" and
			// asks again. The retries are counted, the query is one query.
			for try := 0; try < 10000 && !stop.Load(); try++ {
				if i%2 == 0 {
					_, err = f.B.RequestDisclosure(ctx, addrDisc, pfx, epoch)
				} else {
					_, err = f.O.QueryDisclosure(ctx, addrDisc, pvr.Query{Prefix: pfx, Epoch: epoch, Role: pvr.RoleObserver, Prover: asnA})
				}
				if !errors.Is(err, pvr.ErrNotFound) {
					break
				}
				bgRetry++
			}
			if stop.Load() && err != nil {
				return // interrupted mid-retry by the end of the run
			}
			out.attempt(1, err)
			bgDone++
		}
	}()

	io0 := f.tr.plane(addrBGP).counts()
	start := time.Now()
	for d.next < len(p.windows) && time.Since(start) < r.budget {
		w, n := d.next, len(p.windows[d.next])
		t0, err := d.window(ctx)
		if err == nil {
			err = d.follow(ctx, w, t0)
		}
		out.attempt(n, err)
		if err != nil {
			break
		}
		out.complete(t0, time.Now(), n)
	}
	out.phase(start)
	stop.Store(true)
	wg.Wait()
	out.count["bg_queries"] = float64(bgDone)
	out.count["bg_retries"] = float64(bgRetry)
	out.lat["op_ms"] = out.lat["window_verified_ms"]
	out.lat["fresh_ms"] = out.lat["fresh_disclosure_ms"]
	out.count["wire_bytes_per_op"] = ratio(float64(f.tr.plane(addrBGP).counts().sub(io0).bytes), float64(out.ops))
	return d.settle, nil
}

// follow takes one sealed, B-verified window the rest of the way: a fresh
// promisee disclosure, one audit round, one observer view.
func (d *updateDriver) follow(ctx context.Context, w int, t0 time.Time) error {
	if len(d.lastDirty) == 0 {
		return fmt.Errorf("window %d dirtied nothing", w)
	}
	pfx := d.f.pfxs[d.lastDirty[0]]
	end := d.tr.start("disclose", "", w)
	disc, err := d.f.B.RequestDisclosure(ctx, addrDisc, pfx, epoch)
	end()
	if err != nil {
		return fmt.Errorf("window %d fresh disclosure: %w", w, err)
	}
	if disc.Window != d.lastWindow {
		return fmt.Errorf("window %d: disclosure at window %d, sealed %d", w, disc.Window, d.lastWindow)
	}
	d.out.observe("fresh_disclosure_ms", ms(time.Since(t0)))

	end = d.tr.start("reconcile", "", w)
	st, err := d.f.C.Reconcile(ctx, addrGossip)
	end()
	if err != nil {
		return fmt.Errorf("window %d reconcile: %w", w, err)
	}
	if st.NewStatements == 0 || st.Rejected != 0 {
		return fmt.Errorf("window %d reconcile: %d new statements, %d rejected", w, st.NewStatements, st.Rejected)
	}

	opfx := d.f.pfxs[d.lastDirty[len(d.lastDirty)-1]]
	end = d.tr.start("observe", "", w)
	od, err := d.f.O.QueryDisclosure(ctx, addrDisc, pvr.Query{Prefix: opfx, Epoch: epoch, Role: pvr.RoleObserver, Prover: asnA})
	end()
	if err != nil {
		return fmt.Errorf("window %d observer view: %w", w, err)
	}
	if od.Window != d.lastWindow || od.Sealed == nil {
		return fmt.Errorf("window %d: observer view at window %d, sealed %d", w, od.Window, d.lastWindow)
	}
	return nil
}
