package pvr_test

// Godoc Example functions: compiler- and CI-checked documentation of the
// public API contract. Each runs under go test; the // Output: comments
// pin the observable behaviour.

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"pvr"
)

// ExampleParticipant is the deployment story in miniature: one
// lifecycle-managed Participant per AS over the in-memory transport. The
// origin proves over its table and serves it; the neighbor dials, pins
// the origin's key trust-on-first-use, and verifies every learned route
// against the sealed commitment chain.
func ExampleParticipant() {
	ctx := context.Background()
	mem := pvr.NewMemTransport()

	origin, err := pvr.Open(ctx,
		pvr.WithASN(64500),
		pvr.WithTransport(mem),
		pvr.WithOriginate(pvr.MustParsePrefix("203.0.113.0/24")),
		pvr.WithWindow(0), // seal on explicit Flush only
		pvr.WithListen("origin"),
		pvr.WithHoldTime(0),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer origin.Close()

	neighbor, err := pvr.Open(ctx,
		pvr.WithASN(64501),
		pvr.WithTransport(mem),
		pvr.WithPeers("origin"),
		pvr.WithHoldTime(0),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer neighbor.Close()

	for neighbor.Stats().RoutesVerified < 1 {
		time.Sleep(time.Millisecond)
	}
	st := neighbor.Stats()
	fmt.Printf("verified %d sealed route(s), rejected %d\n", st.RoutesVerified, st.RoutesRejected)
	// Output: verified 1 sealed route(s), rejected 0
}

// ExampleParticipant_RequestDisclosure is the disclosure query plane in
// miniature: a prover serves α-gated on-demand views of its sealed table
// (WithDiscloseListen), the declared promisee fetches and verifies its
// full §3.3 view over the wire, and a third party asking for the same
// view is denied with a typed ErrAccessDenied — the paper's privacy
// boundary, enforced across a trust boundary instead of by caller
// convention.
func ExampleParticipant_RequestDisclosure() {
	ctx := context.Background()
	mem := pvr.NewMemTransport()
	reg := pvr.NewRegistry() // shared out-of-band PKI

	pfx := pvr.MustParsePrefix("203.0.113.0/24")
	prover, err := pvr.Open(ctx,
		pvr.WithASN(64500),
		pvr.WithTransport(mem),
		pvr.WithRegistry(reg),
		pvr.WithOriginate(pfx),
		pvr.WithWindow(0),
		pvr.WithHoldTime(0),
		pvr.WithDiscloseListen("disc"),
		pvr.WithPromisees(64501), // α: only 64501 gets the promisee view
	)
	if err != nil {
		log.Fatal(err)
	}
	defer prover.Close()

	promisee, err := pvr.Open(ctx,
		pvr.WithASN(64501), pvr.WithTransport(mem), pvr.WithRegistry(reg), pvr.WithHoldTime(0))
	if err != nil {
		log.Fatal(err)
	}
	defer promisee.Close()
	d, err := promisee.RequestDisclosure(ctx, "disc", pfx, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s view of %s from %s: verified\n", d.Role, d.Prefix, d.Prover)

	third, err := pvr.Open(ctx,
		pvr.WithASN(64502), pvr.WithTransport(mem), pvr.WithRegistry(reg), pvr.WithHoldTime(0))
	if err != nil {
		log.Fatal(err)
	}
	defer third.Close()
	_, err = third.RequestDisclosure(ctx, "disc", pfx, 1)
	fmt.Printf("third party denied under α: %v\n", errors.Is(err, pvr.ErrAccessDenied))

	// The sealed commitment itself is public material: the same third
	// party may always fetch and verify it as an observer.
	od, err := third.QueryDisclosure(ctx, "disc", pvr.Query{Prefix: pfx, Epoch: 1, Role: pvr.RoleObserver})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s view of %s from %s: verified\n", od.Role, od.Prefix, od.Prover)
	// Output:
	// promisee view of 203.0.113.0/24 from AS64500: verified
	// third party denied under α: true
	// observer view of 203.0.113.0/24 from AS64500: verified
}
