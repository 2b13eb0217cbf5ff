package core_test

import (
	"fmt"
	"log"
	mrand "math/rand"
	"net/netip"
	"sort"

	"pvr/internal/aspath"
	"pvr/internal/core"
	"pvr/internal/prefix"
	"pvr/internal/rfg"
	"pvr/internal/route"
	"pvr/internal/sigs"
)

// pki is the out-of-band PKI the paper assumes: one Ed25519 key per AS,
// every public key in a shared registry.
type pki struct {
	reg     *sigs.Registry
	signers map[aspath.ASN]sigs.Signer
}

func newPKI(asns ...aspath.ASN) *pki {
	p := &pki{reg: sigs.NewRegistry(), signers: map[aspath.ASN]sigs.Signer{}}
	for _, asn := range asns {
		s, err := sigs.GenerateEd25519()
		if err != nil {
			log.Fatal(err)
		}
		p.signers[asn] = s
		p.reg.Register(asn, s.Public())
	}
	return p
}

// ExampleProver runs one epoch of the §3.3 minimum-route protocol: the
// provider announces a signed route, the prover commits to the bit
// vector, and the promisee verifies the disclosure.
func ExampleProver() {
	const a, n1, b = aspath.ASN(64500), aspath.ASN(64501), aspath.ASN(64510)
	keys := newPKI(a, n1, b)

	pfx := prefix.MustParse("203.0.113.0/24")
	prover, err := core.NewProver(a, keys.signers[a], keys.reg, 32)
	if err != nil {
		log.Fatal(err)
	}
	prover.BeginEpoch(1, pfx)

	ann, err := core.NewAnnouncement(keys.signers[n1], n1, a, 1, route.Route{
		Prefix:  pfx,
		Path:    aspath.New(n1, 64800),
		NextHop: netip.MustParseAddr("192.0.2.1"),
	})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := prover.AcceptAnnouncement(ann); err != nil {
		log.Fatal(err)
	}
	if _, err := prover.CommitMin(); err != nil {
		log.Fatal(err)
	}
	view, err := prover.DiscloseToPromisee(b)
	if err != nil {
		log.Fatal(err)
	}
	if err := core.VerifyPromiseeView(keys.reg, view); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("promise kept: exported %s over %d-hop input\n",
		view.Export.Route.Prefix, ann.Route.PathLen())
	// Output: promise kept: exported 203.0.113.0/24 over 2-hop input
}

// ExampleProver_figure1 is the paper's Figure 1 scenario. Network A
// promises its customer B that it will always export the shortest route
// it receives from its providers N1..N3. One epoch runs: the providers
// announce signed routes, A commits to the §3.3 bit vector, and every
// neighbor verifies its disclosure — without learning anything beyond
// what BGP already reveals.
func ExampleProver_figure1() {
	const a, b = aspath.ASN(64500), aspath.ASN(64510)
	providers := []struct {
		asn  aspath.ASN
		path []aspath.ASN
	}{
		{64501, []aspath.ASN{64501, 64700, 64701, 64702}}, // length 4
		{64502, []aspath.ASN{64502, 64800}},               // length 2: the winner
		{64503, []aspath.ASN{64503, 64900, 64901}},        // length 3
	}
	keys := newPKI(a, b, 64501, 64502, 64503)
	pfx := prefix.MustParse("203.0.113.0/24")
	const epoch = 1

	// A starts the epoch with a bit vector covering paths up to 32 hops.
	prover, err := core.NewProver(a, keys.signers[a], keys.reg, 32)
	if err != nil {
		log.Fatal(err)
	}
	prover.BeginEpoch(epoch, pfx)

	// Each provider announces a signed route; A acknowledges with a
	// receipt (the provider keeps it — it is what makes later accusations
	// judge-proof).
	anns := make([]core.Announcement, len(providers))
	for i, n := range providers {
		ann, err := core.NewAnnouncement(keys.signers[n.asn], n.asn, a, epoch, route.Route{
			Prefix:  pfx,
			Path:    aspath.New(n.path...),
			NextHop: netip.MustParseAddr("192.0.2.1"),
		})
		if err != nil {
			log.Fatal(err)
		}
		receipt, err := prover.AcceptAnnouncement(ann)
		if err != nil {
			log.Fatal(err)
		}
		anns[i] = ann
		fmt.Printf("%s announced a %d-hop route; got receipt from %s\n",
			n.asn, ann.Route.PathLen(), receipt.Issuer)
	}

	// A commits to the bit vector and publishes it (in deployment the
	// commitment is gossiped among the neighbors for equivocation checks).
	commitment, err := prover.CommitMin()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("A committed to %d bit commitments for epoch %d\n",
		len(commitment.Commitments), epoch)

	// Each provider verifies its own disclosure: the bit at its route's
	// length must be 1. It learns nothing about the other providers.
	for i, n := range providers {
		view, err := prover.DiscloseToProvider(n.asn)
		if err != nil {
			log.Fatal(err)
		}
		if err := core.VerifyProviderView(keys.reg, view, anns[i]); err != nil {
			log.Fatalf("%s detected a violation: %v", n.asn, err)
		}
		fmt.Printf("%s verified its view (bit %d opens to 1)\n", n.asn, view.Position)
	}

	// B verifies the full vector, monotonicity, and that the export is
	// the committed minimum with valid provenance.
	view, err := prover.DiscloseToPromisee(b)
	if err != nil {
		log.Fatal(err)
	}
	if err := core.VerifyPromiseeView(keys.reg, view); err != nil {
		log.Fatalf("B detected a violation: %v", err)
	}
	fmt.Printf("B verified the promise: exported route %s (path %s)\n",
		view.Export.Route.Prefix, view.Export.Route.Path)
	// Output:
	// AS64501 announced a 4-hop route; got receipt from AS64500
	// AS64502 announced a 2-hop route; got receipt from AS64500
	// AS64503 announced a 3-hop route; got receipt from AS64500
	// A committed to 32 bit commitments for epoch 1
	// AS64501 verified its view (bit 4 opens to 1)
	// AS64502 verified its view (bit 2 opens to 1)
	// AS64503 verified its view (bit 3 opens to 1)
	// B verified the promise: exported route 203.0.113.0/24 (path 64500 64502 64800)
}

// ExampleGraphProver is the paper's Figure 2 policy, partial transit, as
// a route-flow graph. A's promise to B is "I will export some route via
// N2..N4 unless N1 provides a shorter route" — an exists operator over
// r2..r4 feeding a preference operator with r1. B statically vets the
// declared rules against the promise (model check, §2.2), verifies A's
// Merkle commitment over the evaluated graph (§3.5), and navigates the
// disclosed vertices without seeing anything α forbids (§3.6–3.7).
func ExampleGraphProver() {
	const a, b = aspath.ASN(64500), aspath.ASN(64510)
	keys := newPKI(a, b)

	// The declared rules: Fig. 2 with k = 4 inputs.
	graph, inputs, outVar, err := rfg.Fig2(4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("declared route-flow graph: inputs %v, output %s\n", inputs, outVar)

	// B vets the rules offline: does this graph keep the promise "export
	// iff any input exists"? And would it satisfy the stronger "always
	// shortest" promise? (No: that is the point of partial transit.)
	honest := rfg.ExistsFromSubset{Subset: inputs}
	if err := rfg.ModelCheck(graph, honest, inputs, outVar, 500, mrand.New(mrand.NewSource(1))); err != nil {
		log.Fatalf("graph does not implement the agreed promise: %v", err)
	}
	fmt.Printf("model check: graph implements %q\n", honest)
	tooStrong := rfg.ShortestOfSubset{Subset: inputs}
	if err := rfg.ModelCheck(graph, tooStrong, inputs, outVar, 500, mrand.New(mrand.NewSource(2))); err != nil {
		fmt.Printf("model check: graph correctly does NOT implement %q\n", tooStrong)
	}

	// The access policy α: B sees the output and the operators, the edges
	// of the intermediate variable, and none of the input values.
	access := rfg.NewAccess()
	access.AllowAll(b, outVar.Label())
	access.AllowAll(b, rfg.OpID("prefer").Label())
	access.AllowAll(b, rfg.OpID("exists").Label())
	access.Allow(b, rfg.VarID("v").Label(), rfg.CompPreds, rfg.CompSuccs)

	// This epoch's inputs: N1 offers 5 hops, N3 offers 3 hops.
	mkRoute := func(origin aspath.ASN, hops int) route.Route {
		path := make([]aspath.ASN, hops)
		path[0] = origin
		for i := 1; i < hops; i++ {
			path[i] = aspath.ASN(65000 + i)
		}
		return route.Route{
			Prefix:  prefix.MustParse("203.0.113.0/24"),
			Path:    aspath.New(path...),
			NextHop: netip.MustParseAddr("192.0.2.7"),
		}
	}
	epochInputs := map[rfg.VarID][]route.Route{
		inputs[0]: {mkRoute(64501, 5)},
		inputs[2]: {mkRoute(64503, 3)},
	}

	// A evaluates and commits; B checks the signed root as it navigates
	// from the output, verifying every disclosure.
	gp := core.NewGraphProver(a, keys.signers[a], graph, access)
	gc, err := gp.Commit(1, epochInputs)
	if err != nil {
		log.Fatal(err)
	}
	seen, err := core.Navigate(keys.reg, gc, outVar.Label(), func(label string) (*core.VertexDisclosure, error) {
		return gp.Disclose(b, label)
	})
	if err != nil {
		log.Fatal(err)
	}
	labels := make([]string, 0, len(seen))
	for label := range seen {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	fmt.Println("B navigated the disclosed graph:")
	for _, label := range labels {
		switch v := seen[label]; {
		case v.HasData && len(v.Routes) > 0:
			first, _ := v.Routes[0].Path.First()
			fmt.Printf("  %-14s value: %d-hop route via %s\n", label, v.Routes[0].PathLen(), first)
		case v.HasData && v.OpType != "":
			fmt.Printf("  %-14s operator: %s (reads %v)\n", label, v.OpType, v.Preds)
		default:
			fmt.Printf("  %-14s edges only (data withheld by α): preds %v\n", label, v.Preds)
		}
	}
	for _, in := range inputs {
		if _, leaked := seen[in.Label()]; leaked {
			log.Fatalf("confidentiality broken: B saw %s", in.Label())
		}
	}
	fmt.Println("confidentiality held: no input variable was disclosed to B")
	// Output:
	// declared route-flow graph: inputs [r1 r2 r3 r4], output ro
	// model check: graph implements "export iff any of [r1 r2 r3 r4] provides a route"
	// model check: graph correctly does NOT implement "shortest route among inputs [r1 r2 r3 r4]"
	// B navigated the disclosed graph:
	//   rule(exists)   operator: exists (reads [var(r2) var(r3) var(r4)])
	//   rule(prefer)   operator: prefer-first (reads [var(r1) var(v)])
	//   var(ro)        value: 3-hop route via AS64503
	//   var(v)         edges only (data withheld by α): preds [rule(exists)]
	// confidentiality held: no input variable was disclosed to B
}
