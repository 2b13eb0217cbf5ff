package pvr

// The update path's signature budget and its verdict memo, seen through a
// Participant: what a window costs the prover in signatures, that a memoized
// route verdict never lets a tampered UPDATE through at the receiver, and
// that UPDATEs built on the worker pool come out as the serial loop builds
// them.

import (
	"bytes"
	"context"
	"fmt"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"pvr/internal/bgp"
	"pvr/internal/prefix"
)

// countingSigner counts every signature its participant makes.
type countingSigner struct {
	Signer
	n atomic.Int64
}

func (c *countingSigner) Sign(msg []byte) ([]byte, error) {
	c.n.Add(1)
	return c.Signer.Sign(msg)
}

func testPrefixes(n int) []Prefix {
	out := make([]Prefix, n)
	for i := range out {
		out[i] = MustParsePrefix(fmt.Sprintf("10.9.%d.0/24", i))
	}
	return out
}

func openTest(t *testing.T, opts ...Option) *Participant {
	t.Helper()
	p, err := Open(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// announceAll has provider announce a route of pathLen hops for each
// prefix to p and submits it.
func announceAll(t *testing.T, p, provider *Participant, pfxs []Prefix, pathLen int) {
	t.Helper()
	for _, pfx := range pfxs {
		hops := []ASN{provider.ASN()}
		for len(hops) < pathLen {
			hops = append(hops, ASN(65100+len(hops)))
		}
		ann, err := provider.Announce(p.ASN(), 1, Route{Prefix: pfx, Path: NewPath(hops...), NextHop: netip.MustParseAddr("192.0.2.7")})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Submit(context.Background(), AnnounceEvent(provider.ASN(), ann)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWindowSignatureBudget: opening an originating participant costs its
// S shard seals and nothing else (no receipt per originated prefix), and a
// window of N announced prefixes costs S seals plus one route signature
// per re-advertised prefix: no export statement, no receipt.
func TestWindowSignatureBudget(t *testing.T) {
	const shards, originated, announced = 4, 32, 12
	key, err := GenerateEd25519()
	if err != nil {
		t.Fatal(err)
	}
	cs := &countingSigner{Signer: key}
	reg := NewRegistry()
	a := openTest(t, WithASN(64500), WithSigner(cs), WithRegistry(reg), WithTransport(NewMemTransport()),
		WithOriginate(testPrefixes(originated)...), WithShards(shards), WithWindow(0))
	if got := cs.n.Load(); got != shards {
		t.Fatalf("Open made %d signatures, want %d shard seals", got, shards)
	}
	provider := openTest(t, WithASN(64501), WithRegistry(reg), WithTransport(NewMemTransport()))
	announceAll(t, a, provider, testPrefixes(originated)[:announced], 3)
	cs.n.Store(0)
	w, err := a.Flush(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if w.DirtyPrefixes != announced {
		t.Fatalf("window dirtied %d prefixes, want %d", w.DirtyPrefixes, announced)
	}
	if got, want := cs.n.Load(), int64(shards+announced); got != want {
		t.Fatalf("Flush made %d signatures, want %d (%d seals + %d routes)", got, want, shards, announced)
	}
}

// TestReceiverRejectsFlippedRouteSignature: B has verified (and memoized)
// an UPDATE's route body; the same UPDATE with one bit of its pvr/sig
// flipped is still rejected, and the genuine one still verifies after.
func TestReceiverRejectsFlippedRouteSignature(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	tr, reg := NewMemTransport(), NewRegistry()
	pfx := testPrefixes(1)
	a := openTest(t, WithASN(64500), WithRegistry(reg), WithTransport(tr), WithOriginate(pfx...), WithShards(2), WithWindow(0))
	b := openTest(t, WithASN(64510), WithRegistry(reg), WithTransport(tr), WithListen("b-bgp"), WithHoldTime(0))

	u, ok, err := a.updateFor(pfx[0])
	if err != nil || !ok {
		t.Fatalf("updateFor: ok=%v err=%v", ok, err)
	}
	flipped := bgp.Update{Announced: u.Announced, Attachments: make(map[string][]byte, len(u.Attachments))}
	for k, v := range u.Attachments {
		flipped.Attachments[k] = v
	}
	sig := bytes.Clone(u.Attachments["pvr/sig"])
	sig[len(sig)/2] ^= 0x04
	flipped.Attachments["pvr/sig"] = sig

	// A speaker replaying A's UPDATEs on a session of its own.
	conn, err := tr.Dial(ctx, "b-bgp")
	if err != nil {
		t.Fatal(err)
	}
	s := bgp.NewSession(conn, bgp.Open{ASN: a.ASN(), RouterID: uint32(a.ASN())}, bgp.SessionHooks{})
	go s.Run(ctx)
	for s.State() != bgp.StateEstablished {
		if ctx.Err() != nil {
			t.Fatal("session never established")
		}
		time.Sleep(time.Millisecond)
	}

	counter := func(name string) float64 {
		v, _ := b.Metrics().Value(name)
		return v
	}
	waitCounts := func(verified, rejected float64) {
		t.Helper()
		for counter("pvr_routes_verified_total") != verified || counter("pvr_routes_rejected_total") != rejected {
			if ctx.Err() != nil {
				t.Fatalf("B verified %v and rejected %v routes, want %v and %v",
					counter("pvr_routes_verified_total"), counter("pvr_routes_rejected_total"), verified, rejected)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i, step := range []struct {
		u                  bgp.Update
		verified, rejected float64
	}{{u, 1, 0}, {flipped, 1, 1}, {u, 2, 1}} {
		if err := s.SendUpdate(step.u); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		waitCounts(step.verified, step.rejected)
	}
}

// TestWindowUpdatesMatchSerialBuild: the UPDATEs a window builds on a pool
// of four workers are, in order and byte for byte, what building them one
// at a time gives, and the sent/withdrawn counts agree.
func TestWindowUpdatesMatchSerialBuild(t *testing.T) {
	const n = 48
	reg := NewRegistry()
	pfxs := testPrefixes(n)
	a := openTest(t, WithASN(64500), WithRegistry(reg), WithTransport(NewMemTransport()),
		WithOriginate(pfxs...), WithShards(4), WithWindow(0), WithWorkers(4))
	provider := openTest(t, WithASN(64501), WithRegistry(reg), WithTransport(NewMemTransport()))
	announceAll(t, a, provider, pfxs[:n/2], 4)
	if _, err := a.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The provider's routes replace the originated ones; withdrawing them
	// empties those prefixes, which the window must then withdraw.
	announceAll(t, a, provider, pfxs[n/2:], 2)
	for _, pfx := range pfxs[:n/4] {
		if err := a.Submit(context.Background(), WithdrawEvent(provider.ASN(), pfx)); err != nil {
			t.Fatal(err)
		}
	}
	w, err := a.Flush(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Prefixes) != n/2+n/4 {
		t.Fatalf("window changed %d prefixes, want %d", len(w.Prefixes), n/2+n/4)
	}

	batch, sent, withdrawn := a.windowUpdates(w)
	if sent != n/2 || withdrawn != n/4 {
		t.Fatalf("sent %d, withdrew %d; want %d and %d", sent, withdrawn, n/2, n/4)
	}
	if len(batch) != len(w.Prefixes) {
		t.Fatalf("%d UPDATEs for %d prefixes", len(batch), len(w.Prefixes))
	}
	for i, pfx := range w.Prefixes {
		want, ok, err := a.updateFor(pfx)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			want = bgp.Update{Withdrawn: []prefix.Prefix{pfx}}
		}
		wb, err := want.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		gb, err := batch[i].MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb, wb) {
			t.Fatalf("UPDATE %d (%s) differs from the serial build", i, pfx)
		}
	}
}
