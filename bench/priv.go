package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"pvr"
)

// Sizes of the privacy workload. Every prefix yields one cold auditor
// proof, so the table bounds how long the cold phase can run: about twice
// what the seed commit gets through in its share of the run.
const (
	privProviders = 4
	privMaxLen    = 16
	privPrefixes  = 16
	warmPerCold   = 2
	// One anonymous query in outsiderEvery names a ring with an outsider
	// in it and must be refused.
	outsiderEvery = 32
	replayChecks  = 8
)

type privPlan struct {
	prefixes int
	lens     [][]int // lens[i][pi]: provider i's path length for prefix pi
	anns     [][]pvr.Announcement
	// anon[c] is client c's stream of prefix indices.
	anon [][]int
}

func planPriv(rng *rand.Rand, seconds float64, smoke bool) any {
	p := &privPlan{prefixes: privPrefixes}
	if smoke {
		p.prefixes = 1
	}
	p.lens = make([][]int, privProviders)
	for i := range p.lens {
		p.lens[i] = make([]int, p.prefixes)
		for pi := range p.lens[i] {
			p.lens[i][pi] = 2 + rng.Intn(maxPathLen-1)
		}
	}
	p.anon = make([][]int, nproc())
	for c := range p.anon {
		p.anon[c] = make([]int, 1024)
		for i := range p.anon[c] {
			p.anon[c][i] = rng.Intn(p.prefixes)
		}
	}
	return p
}

func signPriv(f *fleet, plan any) error {
	p := plan.(*privPlan)
	p.anns = make([][]pvr.Announcement, privProviders)
	for i := range p.anns {
		p.anns[i] = make([]pvr.Announcement, p.prefixes)
		for pi := range p.anns[i] {
			ann, err := f.announce(i, pi, p.lens[i][pi])
			if err != nil {
				return err
			}
			p.anns[i][pi] = ann
		}
	}
	return nil
}

// preparePriv loads the ring's inputs as one window: A seals every prefix
// with its Pedersen vector bound into the leaf.
func preparePriv(ctx context.Context, f *fleet, plan any, out *outcome) error {
	p := plan.(*privPlan)
	for i := range p.anns {
		for _, ann := range p.anns[i] {
			if err := f.A.Submit(ctx, pvr.AnnounceEvent(asnP+pvr.ASN(i), ann)); err != nil {
				return err
			}
		}
	}
	t0 := time.Now()
	res, err := f.A.Flush(ctx)
	if err != nil {
		return err
	}
	out.count["zk_seal_ms_per_prefix"] = ms(time.Since(t0)) / float64(p.prefixes)
	out.count["window"] = float64(res.Window)
	return nil
}

// runPriv spends the first two thirds of the budget on auditor proofs — for one
// prefix after another a cold one (generated, shipped, verified) and then
// warm ones (served from A's caches: wire and verify only) — and the last
// third on ring-signed provider queries in a closed loop of nproc clients.
func runPriv(ctx context.Context, f *fleet, plan any, r runParams, out *outcome) (func(context.Context), error) {
	p := plan.(*privPlan)
	budget, tr := r.budget, r.tr
	window := uint64(out.count["window"])
	disc := f.tr.plane(addrDisc)
	ring := make([]pvr.ASN, privProviders)
	for i := range ring {
		ring[i] = asnP + pvr.ASN(i)
	}

	audit := func(pi, id int, name string) error {
		end := tr.start(name, "", id)
		t0 := time.Now()
		d, err := f.O.RequestAuditProof(ctx, addrDisc, f.pfxs[pi], epoch)
		out.observe(name+"_ms", ms(time.Since(t0)))
		end()
		if err == nil && (d.Vector == nil || d.Vector.Proof == nil || d.Promisee != nil || d.Provider != nil || d.Window != window) {
			err = fmt.Errorf("auditor view of %s malformed or at window %d, sealed %d", f.pfxs[pi], d.Window, window)
		}
		out.attempt(1, err)
		return err
	}
	auditShare := budget * 2 / 3
	if r.rateOnly {
		auditShare = 0 // the rate is the anonymous queries'
	}
	start := time.Now()
	for pi := 0; pi < p.prefixes && time.Since(start) < auditShare; pi++ {
		before := disc.counts()
		if audit(pi, pi, "audit_cold") != nil {
			break
		}
		// One auditor exchange on the wire: the signed query out, the
		// sealed commitment plus vector proof back. An exact count.
		out.count["audit_proof_bytes"] = float64(disc.counts().sub(before).bytes)
		for k := 0; k < warmPerCold; k++ {
			if audit(pi, pi*warmPerCold+k, "audit_warm") != nil {
				break
			}
		}
	}

	anon := func(c, i int) error {
		provider := (c + i) % privProviders
		pi := p.anon[c][i%len(p.anon[c])]
		if i%outsiderEvery == outsiderEvery-1 {
			_, err := f.P[provider].RequestAnonymousDisclosure(ctx, addrDisc, f.pfxs[pi], epoch,
				[]pvr.ASN{asnP + pvr.ASN(provider), asnU}, &p.anns[provider][pi])
			out.add("outsider_attempts", 1)
			if errors.Is(err, pvr.ErrAccessDenied) {
				out.add("outsider_denials", 1)
				return nil
			}
			return fmt.Errorf("ring with an outsider: got %v, want ErrAccessDenied", err)
		}
		d, err := f.P[provider].RequestAnonymousDisclosure(ctx, addrDisc, f.pfxs[pi], epoch, ring, &p.anns[provider][pi])
		if err == nil && (d.Provider == nil || d.Provider.Position != p.lens[provider][pi] || d.Window != window) {
			err = fmt.Errorf("anonymous view of %s: wrong bit or window", f.pfxs[pi])
		}
		return err
	}
	var wg sync.WaitGroup
	anonStart := time.Now()
	for c := range p.anon {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// At least a few, so that a slow auditor phase cannot leave the
			// closed loop without a sample.
			for i := 0; i < 4 || time.Since(start) < budget; i++ {
				end := tr.start("anon_query", "", c<<24|i)
				t0 := time.Now()
				err := anon(c, i)
				t1 := time.Now()
				end()
				out.attempt(1, err)
				if err == nil {
					out.complete(t0, t1, 1)
				}
			}
		}(c)
	}
	wg.Wait()
	out.phase(anonStart)
	out.lat["op_ms"], out.lat["fresh_ms"] = out.lat["audit_warm_ms"], out.lat["audit_cold_ms"]
	out.count["wire_bytes_per_op"] = out.count["audit_proof_bytes"]
	return func(ctx context.Context) { p.settle(ctx, f, out, ring) }, nil
}

// settle checks replay protection and that nobody was convicted.
func (p *privPlan) settle(ctx context.Context, f *fleet, out *outcome, ring []pvr.ASN) {
	disc := f.tr.plane(addrDisc)
	// A captured query sent a second time must be refused like the outsider
	// ring was: same nonce, same answer frame as any other denial.
	_, err := f.P[0].RequestAnonymousDisclosure(ctx, addrDisc, f.pfxs[0], epoch, []pvr.ASN{asnP, asnU}, &p.anns[0][0])
	out.check(errors.Is(err, pvr.ErrAccessDenied), "ring with an outsider: got %v, want ErrAccessDenied", err)
	denyType := disc.lastRecvType.Load()
	for k := 0; k < replayChecks; k++ {
		disc.capture.Store(true)
		_, err := f.P[0].RequestAnonymousDisclosure(ctx, addrDisc, f.pfxs[0], epoch, ring, &p.anns[0][0])
		q := disc.takeCaptured()
		if err != nil || q == nil {
			out.check(false, "replay check %d: original query failed: %v", k, err)
			continue
		}
		grantType := disc.lastRecvType.Load()
		got, err := f.tr.replay(ctx, addrDisc, *q)
		out.check(err == nil && uint32(got) == denyType && grantType != denyType,
			"replayed query answered with frame %#x (%v); a denial is %#x, a grant %#x", got, err, denyType, grantType)
	}
	out.check(f.convictions() == 0, "%d convictions in an all-honest fleet", f.convictions())
}

var privAudit = &workload{
	name: "priv_audit",
	why:  "small ZK-sealed table, ring of 4: cold and warm zero-knowledge auditor proofs, then ring-signed anonymous provider queries: privplane, zkp and ringsig do nearly all the work",
	spec: func(smoke bool) fleetSpec {
		s := fleetSpec{prefixes: privPrefixes, providers: privProviders, maxLen: privMaxLen, zk: true}
		if smoke {
			s.prefixes, s.maxLen = 1, maxPathLen
		}
		return s
	},
	plan:    planPriv,
	sign:    signPriv,
	prepare: preparePriv,
	run:     runPriv,
}
