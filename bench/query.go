package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pvr"
)

// Sizes of the query workload.
const (
	// queryPrefixes is the universe the traffic draws from. A's table holds
	// coldPrefixes more, which nothing asks about but the fresh_ms probes:
	// the promisee's first query for one of those misses A's response cache
	// whatever the traffic has touched by then.
	queryPrefixes  = 2048
	coldPrefixes   = 512
	queryProviders = 3
	// openLoopRate is phase B's offered load in queries per second: 40 % of
	// the 11 100 q/s phase A's closed loop sustains at the seed commit on
	// the 2-core reference box (83 421 queries in 7.5 s, seed 1), rounded to
	// 100 and then frozen, so that every later commit is measured at the
	// same offered load. op_ms is the latency at this rate.
	openLoopRate = 4400
	// loadedRate is a second fixed rate, 70 % of the same throughput: what
	// queueing does to latency as the prover nears saturation. Reported,
	// not gated.
	loadedRate = 7800
	// warmQueries is the length of the warm-up pass.
	warmQueries = 4096
)

// queryRole is who asks: the role mix of the workload.
type queryRole uint8

const (
	asPromisee   queryRole = iota // B: granted the full view
	asProvider                    // Pi: granted its own bit
	asObserver                    // O: granted the sealed commitment
	asUnentitled                  // U asking as promisee: must be denied
)

type plannedQuery struct {
	role     queryRole
	provider int
	pi       int
}

type queryPlan struct {
	// lens[i][pi] is provider i's path length for prefix pi.
	lens [][]int
	// Prefixes [0, universe) are the traffic's; [universe, len(lens[0]))
	// are the cold ones.
	universe int
	anns     [][]pvr.Announcement
	warm     []plannedQuery
	// closed[c] is client c's endless query stream for phase A.
	closed [][]plannedQuery
	// open is phase B's schedule at openLoopRate, loaded at loadedRate.
	open, loaded openSchedule
}

// openSchedule is one open-loop phase as planned: queries and due times.
type openSchedule struct {
	queries []plannedQuery
	due     []time.Duration
}

// queryPhases splits a run: phase A takes half, phase B at openLoopRate
// three tenths and at loadedRate the last fifth.
func queryPhases(budget time.Duration) (closed, open, loaded time.Duration) {
	return budget / 2, budget * 3 / 10, budget / 5
}

// querySpec sizes the fleet: the traffic's universe and the cold prefixes.
func querySpec(smoke bool) fleetSpec {
	s := fleetSpec{prefixes: queryPrefixes + coldPrefixes, providers: queryProviders}
	if smoke {
		s.prefixes = 64 + 16
	}
	return s
}

func planQueries(rng *rand.Rand, seconds float64, smoke bool) any {
	prefixes, warm, perClient := queryPrefixes, warmQueries, 1<<16
	rate, loaded := float64(openLoopRate), float64(loadedRate)
	if smoke {
		prefixes, warm, perClient, rate, loaded = 64, 64, 256, 400, 700
	}
	table := querySpec(smoke).prefixes
	p := &queryPlan{lens: make([][]int, queryProviders), universe: prefixes}
	for i := range p.lens {
		p.lens[i] = make([]int, table)
		for pi := range p.lens[i] {
			p.lens[i][pi] = 2 + rng.Intn(maxPathLen-1)
		}
	}
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(prefixes-1))
	draw := func(n int) []plannedQuery {
		qs := make([]plannedQuery, n)
		for i := range qs {
			q := plannedQuery{pi: int(zipf.Uint64())}
			switch r := rng.Float64(); {
			case r < 0.4:
				q.role = asPromisee
			case r < 0.6:
				q.role, q.provider = asProvider, rng.Intn(queryProviders)
			case r < 0.8:
				q.role = asObserver
			default:
				q.role = asUnentitled
			}
			qs[i] = q
		}
		return qs
	}
	p.warm = draw(warm)
	p.closed = make([][]plannedQuery, nproc())
	for c := range p.closed {
		p.closed[c] = draw(perClient)
	}
	// Schedules as long as their share of a whole run; a shorter budget
	// (the traced run's) uses their beginnings.
	_, openFor, loadedFor := queryPhases(time.Duration(seconds * float64(time.Second)))
	p.open.due = poissonSchedule(rng, rate, openFor)
	p.open.queries = draw(len(p.open.due))
	p.loaded.due = poissonSchedule(rng, loaded, loadedFor)
	p.loaded.queries = draw(len(p.loaded.due))
	return p
}

func signQueries(f *fleet, plan any) error {
	p := plan.(*queryPlan)
	p.anns = make([][]pvr.Announcement, len(p.lens))
	for i := range p.anns {
		p.anns[i] = make([]pvr.Announcement, len(p.lens[i]))
	}
	n := len(p.lens[0])
	return parallelFor(len(p.lens)*n, func(j int) error {
		i, pi := j/n, j%n
		ann, err := f.announce(i, pi, p.lens[i][pi])
		p.anns[i][pi] = ann
		return err
	})
}

// ask issues one planned query through the asking Participant's public
// API and judges the outcome: a grant must come back verified and at the
// current window, the unentitled must be refused.
func (p *queryPlan) ask(ctx context.Context, f *fleet, q plannedQuery, window uint64) error {
	pfx := f.pfxs[q.pi]
	var (
		d   *pvr.Disclosure
		err error
	)
	switch q.role {
	case asPromisee:
		d, err = f.B.RequestDisclosure(ctx, addrDisc, pfx, epoch)
		if err == nil && d.Promisee == nil {
			err = errors.New("promisee grant without a promisee view")
		}
	case asProvider:
		d, err = f.P[q.provider].QueryDisclosure(ctx, addrDisc, pvr.Query{
			Prefix: pfx, Epoch: epoch, Role: pvr.RoleProvider, Prover: asnA, Announcement: &p.anns[q.provider][q.pi],
		})
		if err == nil && d.Provider == nil {
			err = errors.New("provider grant without a provider view")
		}
	case asObserver:
		d, err = f.O.QueryDisclosure(ctx, addrDisc, pvr.Query{Prefix: pfx, Epoch: epoch, Role: pvr.RoleObserver, Prover: asnA})
		if err == nil && (d.Sealed == nil || d.Promisee != nil || d.Provider != nil) {
			err = errors.New("observer grant carries role-gated material")
		}
	case asUnentitled:
		_, err = f.U.RequestDisclosure(ctx, addrDisc, pfx, epoch)
		if errors.Is(err, pvr.ErrAccessDenied) {
			return nil
		}
		return fmt.Errorf("unentitled query for %s: got %v, want ErrAccessDenied", pfx, err)
	}
	if err == nil && d.Window != window {
		err = fmt.Errorf("view of %s at window %d, table sealed at %d", pfx, d.Window, window)
	}
	return err
}

// prepareQueries loads the three providers' inputs into A as one window,
// waits for B to verify the re-advertised table, and runs the warm-up pass.
func prepareQueries(ctx context.Context, f *fleet, plan any, out *outcome) error {
	p := plan.(*queryPlan)
	for i := range p.anns {
		for _, ann := range p.anns[i] {
			if err := f.A.Submit(ctx, pvr.AnnounceEvent(asnP+pvr.ASN(i), ann)); err != nil {
				return err
			}
		}
	}
	res, err := f.A.Flush(ctx)
	if err != nil {
		return err
	}
	n := uint64(len(f.pfxs))
	if err := f.waitVerified(ctx, n, n); err != nil {
		return err
	}
	out.count["window"] = float64(res.Window)
	for _, q := range p.warm {
		if err := p.ask(ctx, f, q, res.Window); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// runQueries is phase A (closed loop: nproc clients, each sending its next
// query when the last one returned), then phase B (open loop: a Poisson
// schedule over nproc connections) at openLoopRate and again at loadedRate.
//
// fresh_ms is sampled inside phase A: at even intervals over the phase a
// client's next query is the promisee's for the next cold prefix, a
// response-cache miss at A. (One role, so the sample has one mode.) The
// probes are as many however fast the queries go, spread over the whole
// phase, and meet the load the other queries do: a sample taken in one short
// spell, or from a lone client on an idle box, moves with the host's mood.
func runQueries(ctx context.Context, f *fleet, plan any, r runParams, out *outcome) (func(context.Context), error) {
	p := plan.(*queryPlan)
	window := uint64(out.count["window"])
	tr := r.tr
	closedFor, openFor, loadedFor := queryPhases(r.budget)
	if r.rateOnly {
		closedFor = r.budget // the rate is phase A's
	}

	// Cold probe k falls due in the middle of the phase's k-th interval and
	// goes to whichever client is first free after that.
	cold := len(f.pfxs) - p.universe
	coldEvery := closedFor / time.Duration(cold)
	var (
		wg       sync.WaitGroup
		nextCold atomic.Int64
		io0      = f.tr.plane(addrDisc).counts()
		start    = time.Now()
	)
	for c := range p.closed {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, next := 0, 0; ; i++ {
				since := time.Since(start)
				if since >= closedFor {
					return
				}
				var q plannedQuery
				k := nextCold.Load()
				probe := int(k) < cold && since >= coldEvery/2+time.Duration(k)*coldEvery && nextCold.CompareAndSwap(k, k+1)
				if probe {
					q = plannedQuery{role: asPromisee, pi: p.universe + int(k)}
				} else {
					q = p.closed[c][next%len(p.closed[c])]
					next++
				}
				end := tr.start("query", "", c<<24|i)
				t0 := time.Now()
				err := p.ask(ctx, f, q, window)
				t1 := time.Now()
				end()
				if probe {
					out.observe("fresh_ms", ms(t1.Sub(t0)))
				} else {
					out.observe("closed_query_us", us(t1.Sub(t0)))
				}
				out.attempt(1, err)
				if err == nil {
					out.complete(t0, t1, 1)
				}
			}
		}(c)
	}
	wg.Wait()
	out.phase(start)
	out.count["wire_bytes_per_op"] = ratio(float64(f.tr.plane(addrDisc).counts().sub(io0).bytes), float64(out.ops))

	settle := func(ctx context.Context) { p.settle(ctx, f, out) }
	if r.rateOnly {
		return settle, nil
	}

	open := func(name string, s openSchedule, length time.Duration) (latency, late samples) {
		n := sort.Search(len(s.due), func(i int) bool { return s.due[i] >= length })
		return openLoop(s.due[:n], nproc(), func(i int) {
			end := tr.start(name, "", i)
			err := p.ask(ctx, f, s.queries[i], window)
			end()
			out.attempt(1, err)
		})
	}
	lat, late := open("open_query", p.open, openFor)
	out.lat["open_query_us"], out.lat["loadgen_late_us"] = lat, late
	out.lat["op_ms"] = make(samples, len(lat))
	for i, v := range lat {
		out.lat["op_ms"][i] = v / 1e3
	}
	out.lat["loaded_query_us"], out.lat["loaded_late_us"] = open("loaded_query", p.loaded, loadedFor)
	return settle, nil
}

// settle checks that the promisee sees the shortest of each prefix's three
// inputs win, and that nobody was convicted.
func (p *queryPlan) settle(ctx context.Context, f *fleet, out *outcome) {
	rng := rand.New(rand.NewSource(int64(len(p.open.due))))
	for i := 0; i < 64; i++ {
		pi := rng.Intn(len(f.pfxs))
		want := p.lens[0][pi]
		for _, l := range p.lens[1:] {
			want = min(want, l[pi])
		}
		d, err := f.B.RequestDisclosure(ctx, addrDisc, f.pfxs[pi], epoch)
		got := 0
		if err == nil && d.Promisee.Winner != nil {
			got = d.Promisee.Winner.Route.PathLen()
		}
		out.check(err == nil && got == want, "promisee view of %s: winning path %d hops (%v), inputs imply %d", f.pfxs[pi], got, err, want)
	}
	out.check(f.convictions() == 0, "%d convictions in an all-honest fleet", f.convictions())
}

var queryMix = &workload{
	name:    "query_mix",
	why:     "static table, Zipf(1.1) queries over 2048 prefixes in four roles, closed loop then open loop at a fixed rate: discplane serve-from-cache, dial-per-query and client verification do all the work",
	spec:    querySpec,
	plan:    planQueries,
	sign:    signQueries,
	prepare: prepareQueries,
	run:     runQueries,
}
