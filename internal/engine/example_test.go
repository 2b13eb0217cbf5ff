package engine_test

import (
	"fmt"
	"log"
	"net/netip"
	"runtime"

	"pvr/internal/aspath"
	"pvr/internal/core"
	"pvr/internal/engine"
	"pvr/internal/obs"
	"pvr/internal/prefix"
	"pvr/internal/route"
	"pvr/internal/sigs"
)

// ExampleProverEngine is the sharded multi-prefix prover across a whole
// table. AS 64500 receives routes for 32 prefixes from two providers,
// seals the epoch with one Merkle-batched signature per shard, and every
// neighbor verifies its disclosure through the parallel pipeline. A
// Byzantine variant then shows a wrong export being caught.
func ExampleProverEngine() {
	const a, n1, n2, b = aspath.ASN(64500), aspath.ASN(64501), aspath.ASN(64502), aspath.ASN(64503)
	reg := sigs.NewRegistry()
	signers := map[aspath.ASN]sigs.Signer{}
	for _, asn := range []aspath.ASN{a, n1, n2, b} {
		s, err := sigs.GenerateEd25519()
		check(err)
		signers[asn] = s
		reg.Register(asn, s.Public())
	}

	eng, err := engine.New(engine.Config{ASN: a, Signer: signers[a], Registry: reg, MaxLen: 16, Shards: 4})
	check(err)
	eng.BeginEpoch(1)

	// Providers announce routes for 32 prefixes; path lengths differ, so
	// each prefix has a distinct shortest route.
	const nPfx = 32
	var (
		prefixes []prefix.Prefix
		inputs   []core.Announcement
	)
	announce := func(from aspath.ASN, pfx prefix.Prefix, length int) {
		asns := make([]aspath.ASN, length)
		asns[0] = from
		for i := 1; i < length; i++ {
			asns[i] = aspath.ASN(64800 + i)
		}
		ann, err := core.NewAnnouncement(signers[from], from, a, 1, route.Route{
			Prefix:  pfx,
			Path:    aspath.New(asns...),
			NextHop: netip.MustParseAddr("192.0.2.1"),
		})
		check(err)
		check(eng.AcceptAnnouncement(ann, obs.TraceContext{}))
		inputs = append(inputs, ann)
	}
	for i := 0; i < nPfx; i++ {
		pfx := prefix.MustParse(fmt.Sprintf("10.20.%d.0/24", i))
		prefixes = append(prefixes, pfx)
		announce(n1, pfx, 2+i%6)
		announce(n2, pfx, 1+i%9)
	}

	seals, err := eng.SealEpoch()
	check(err)
	fmt.Printf("sealed %d prefixes into %d shard seals (vs %d per-prefix signatures before)\n",
		nPfx, len(seals), nPfx)

	// Every neighbor verifies through the pipeline.
	pl := engine.NewPipeline(reg, runtime.GOMAXPROCS(0))
	for _, ann := range inputs {
		v, err := eng.DiscloseToProvider(ann.Route.Prefix, ann.Provider)
		check(err)
		pl.SubmitProvider(v, ann)
	}
	for _, pfx := range prefixes {
		v, err := eng.DiscloseToPromisee(pfx, b)
		check(err)
		pl.SubmitPromisee(v, b)
	}
	ok := 0
	for _, r := range pl.Drain() {
		if r.Err != nil {
			log.Fatalf("%s rejected by %s: %v", r.Prefix, r.Neighbor, r.Err)
		}
		ok++
	}
	fmt.Printf("pipeline verified %d disclosures (providers' bits + B's full vectors)\n", ok)

	// Byzantine variant: swap one prefix's export for the longer route,
	// signed as a cheating prover would when steering traffic to it.
	view, err := eng.DiscloseToPromisee(prefixes[0], b)
	check(err)
	var longer *core.Announcement
	for i := range inputs {
		ann := inputs[i]
		if ann.Route.Prefix == prefixes[0] && (longer == nil || ann.Route.PathLen() > longer.Route.PathLen()) {
			longer = &ann
		}
	}
	exported, err := longer.Route.WithPrepended(a)
	check(err)
	cheat := *view
	cheat.Winner = longer
	cheat.Export, err = core.NewExportStatement(signers[a], a, b, 1, exported, false)
	check(err)
	err = engine.VerifyPromiseeView(reg, &cheat)
	if v, caught := core.IsViolation(err); caught {
		fmt.Printf("wrong export caught: %s (%s)\n", v.Kind, v.Detail)
	} else {
		log.Fatalf("wrong export NOT caught: %v", err)
	}
	// Output:
	// sealed 32 prefixes into 4 shard seals (vs 32 per-prefix signatures before)
	// pipeline verified 96 disclosures (providers' bits + B's full vectors)
	// wrong export caught: bad-export (winner has length 2, committed minimum is 1)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
