package updplane

import (
	"context"
	"errors"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"pvr/internal/aspath"
	"pvr/internal/bgp"
	"pvr/internal/core"
	"pvr/internal/engine"
	"pvr/internal/netx"
	"pvr/internal/prefix"
	"pvr/internal/route"
	"pvr/internal/sigs"
)

const (
	tProver = aspath.ASN(64500)
	tPeerA  = aspath.ASN(64601)
	tPeerB  = aspath.ASN(64602)
)

type env struct {
	reg     *sigs.Registry
	signers map[aspath.ASN]sigs.Signer
	eng     *engine.ProverEngine
}

func newEnv(t testing.TB, shards int) *env {
	t.Helper()
	e := &env{reg: sigs.NewRegistry(), signers: map[aspath.ASN]sigs.Signer{}}
	for _, asn := range []aspath.ASN{tProver, tPeerA, tPeerB} {
		s, err := sigs.GenerateEd25519()
		if err != nil {
			t.Fatal(err)
		}
		e.signers[asn] = s
		e.reg.Register(asn, s.Public())
	}
	eng, err := engine.New(engine.Config{
		ASN: tProver, Signer: e.signers[tProver], Registry: e.reg,
		MaxLen: 16, Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.BeginEpoch(1)
	e.eng = eng
	return e
}

func (e *env) announce(t testing.TB, from aspath.ASN, pfx prefix.Prefix, length int) core.Announcement {
	t.Helper()
	asns := make([]aspath.ASN, length)
	asns[0] = from
	for i := 1; i < length; i++ {
		asns[i] = aspath.ASN(65000 + i)
	}
	r := route.Route{
		Prefix:    pfx,
		Path:      aspath.New(asns...),
		NextHop:   netip.AddrFrom4([4]byte{10, 0, 0, byte(from)}),
		LocalPref: 100,
	}
	a, err := core.NewAnnouncement(e.signers[from], from, tProver, 1, r)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func testPrefixes(n int) []prefix.Prefix {
	out := make([]prefix.Prefix, n)
	for i := range out {
		out[i] = prefix.V4(10, byte(i>>8), byte(i), 0, 24)
	}
	return out
}

// TestManualWindows drives the deterministic Flush mode: an initial table
// window, then a single-prefix change whose window rebuilds only that
// prefix's shard.
func TestManualWindows(t *testing.T) {
	e := newEnv(t, 4)
	p, err := New(Config{Engine: e.eng})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	pfxs := testPrefixes(16)
	for i, pfx := range pfxs {
		if err := p.Submit(AnnounceEvent(tPeerA, e.announce(t, tPeerA, pfx, 1+i%8))); err != nil {
			t.Fatal(err)
		}
		if err := p.Submit(AnnounceEvent(tPeerB, e.announce(t, tPeerB, pfx, 2+i%7))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if res.Events != 32 || res.DirtyPrefixes != 16 {
		t.Fatalf("window 1: events=%d dirty=%d, want 32/16", res.Events, res.DirtyPrefixes)
	}
	if res.Window != 1 {
		t.Fatalf("window number %d, want 1", res.Window)
	}
	if p.InstalledPrefixes() != 16 {
		t.Fatalf("Loc-RIB has %d prefixes, want 16", p.InstalledPrefixes())
	}

	// One flap: only its shard rebuilds, every other root is stable.
	target := pfxs[5]
	prevRoots := map[uint32][32]byte{}
	for _, s := range res.Seals {
		prevRoots[s.Shard] = s.Root
	}
	if err := p.Submit(AnnounceEvent(tPeerA, e.announce(t, tPeerA, target, 9))); err != nil {
		t.Fatal(err)
	}
	res2, err := p.Flush()
	if err != nil {
		t.Fatal(err)
	}
	wantShard, _ := engine.ShardIndexFor(target, 4)
	if len(res2.Rebuilt) != 1 || res2.Rebuilt[0] != wantShard {
		t.Fatalf("rebuilt %v, want [%d]", res2.Rebuilt, wantShard)
	}
	for _, s := range res2.Seals {
		if s.Shard == wantShard {
			if s.Root == prevRoots[s.Shard] {
				t.Fatalf("dirty shard %d root unchanged", s.Shard)
			}
			continue
		}
		if s.Root != prevRoots[s.Shard] {
			t.Fatalf("clean shard %d root changed", s.Shard)
		}
		if err := s.Verify(e.reg); err != nil {
			t.Fatalf("re-signed clean shard %d: %v", s.Shard, err)
		}
	}

	// The decision process tracked the change: peer A's 9-hop route loses
	// to peer B's shorter one.
	best, ok := p.Best(target)
	if !ok || best.From != tPeerB {
		t.Fatalf("best for %s = %v from %s, want from %s", target, ok, best.From, tPeerB)
	}

	st := p.Stats()
	if st.Windows != 2 || st.EventsIn != 33 {
		t.Fatalf("stats windows=%d events=%d, want 2/33", st.Windows, st.EventsIn)
	}
	if st.RebuiltShards != 4+1 || st.ReusedShards != 0+3 {
		t.Fatalf("stats rebuilt=%d reused=%d, want 5/3", st.RebuiltShards, st.ReusedShards)
	}
}

// TestWithdrawRemovesPrefix: withdrawing every candidate drops the prefix
// from the engine table at the next window.
func TestWithdrawRemovesPrefix(t *testing.T) {
	e := newEnv(t, 2)
	p, err := New(Config{Engine: e.eng})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	pfx := testPrefixes(1)[0]
	_ = p.Submit(AnnounceEvent(tPeerA, e.announce(t, tPeerA, pfx, 3)))
	_ = p.Submit(AnnounceEvent(tPeerB, e.announce(t, tPeerB, pfx, 2)))
	if _, err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	_ = p.Submit(WithdrawEvent(tPeerA, pfx))
	res, err := p.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 0 {
		t.Fatalf("partial withdraw removed %d prefixes", res.Removed)
	}
	if _, err := e.eng.Commitment(pfx); err != nil {
		t.Fatalf("commitment after partial withdraw: %v", err)
	}
	_ = p.Submit(WithdrawEvent(tPeerB, pfx))
	res, err = p.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if res.Removed != 1 {
		t.Fatalf("full withdraw removed %d prefixes, want 1", res.Removed)
	}
	if _, err := e.eng.Commitment(pfx); err == nil {
		t.Fatal("commitment served for fully withdrawn prefix")
	}
	if p.InstalledPrefixes() != 0 {
		t.Fatalf("Loc-RIB still has %d prefixes", p.InstalledPrefixes())
	}
}

// TestBadSignatureEvicted: a forged announcement is evicted at window
// time; the honest candidate still seals.
func TestBadSignatureEvicted(t *testing.T) {
	e := newEnv(t, 2)
	p, err := New(Config{Engine: e.eng})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	pfx := testPrefixes(1)[0]
	forged := e.announce(t, tPeerA, pfx, 3)
	forged.Sig[0] ^= 0xff
	_ = p.Submit(AnnounceEvent(tPeerA, forged))
	_ = p.Submit(AnnounceEvent(tPeerB, e.announce(t, tPeerB, pfx, 2)))
	if _, err := p.Flush(); err != nil {
		t.Fatalf("window with forged candidate: %v", err)
	}
	if got := p.Stats().EventsRejected; got != 1 {
		t.Fatalf("EventsRejected = %d, want 1", got)
	}
	sc, err := e.eng.Commitment(pfx)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Verify(e.reg); err != nil {
		t.Fatal(err)
	}
	// The forged route is also gone from the decision process.
	if best, ok := p.Best(pfx); !ok || best.From != tPeerB {
		t.Fatalf("best = %v/%s, want %s", ok, best.From, tPeerB)
	}
}

// TestBackpressure: with the loop wedged in the OnWindow sink, the
// bounded queue fills and TrySubmit reports ErrQueueFull while Submit
// keeps blocking; both drain once the sink releases.
func TestBackpressure(t *testing.T) {
	e := newEnv(t, 2)
	entered := make(chan struct{})
	release := make(chan struct{})
	var wedgedOnce atomic.Bool
	p, err := New(Config{
		Engine:    e.eng,
		QueueSize: 2,
		OnWindow: func(WindowResult) {
			// Wedge only the first window; later windows must not block.
			if wedgedOnce.CompareAndSwap(false, true) {
				entered <- struct{}{}
				<-release
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	pfxs := testPrefixes(8)
	_ = p.Submit(AnnounceEvent(tPeerA, e.announce(t, tPeerA, pfxs[0], 3)))
	go func() { _, _ = p.Flush() }()
	<-entered // loop is now blocked in OnWindow

	if err := p.TrySubmit(AnnounceEvent(tPeerA, e.announce(t, tPeerA, pfxs[1], 3))); err != nil {
		t.Fatal(err)
	}
	if err := p.TrySubmit(AnnounceEvent(tPeerA, e.announce(t, tPeerA, pfxs[2], 3))); err != nil {
		t.Fatal(err)
	}
	if err := p.TrySubmit(AnnounceEvent(tPeerA, e.announce(t, tPeerA, pfxs[3], 3))); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("TrySubmit on full queue = %v, want ErrQueueFull", err)
	}
	close(release)
	res, err := p.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if res.DirtyPrefixes != 2 {
		t.Fatalf("drained window dirty=%d, want 2", res.DirtyPrefixes)
	}
	if p.Stats().QueueHighWater < 2 {
		t.Fatalf("queue high water %d, want >= 2", p.Stats().QueueHighWater)
	}
}

// TestTimerAndMaxBatchWindows: the batching timer seals without an
// explicit Flush, and MaxBatch forces a window when the batch fills
// first.
func TestTimerAndMaxBatchWindows(t *testing.T) {
	e := newEnv(t, 2)
	windows := make(chan WindowResult, 8)
	p, err := New(Config{
		Engine:   e.eng,
		Window:   10 * time.Millisecond,
		MaxBatch: 4,
		OnWindow: func(r WindowResult) { windows <- r },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	pfxs := testPrefixes(8)
	// 4 events: MaxBatch seals immediately, before any timer tick.
	for i := 0; i < 4; i++ {
		_ = p.Submit(AnnounceEvent(tPeerA, e.announce(t, tPeerA, pfxs[i], 3)))
	}
	select {
	case r := <-windows:
		if r.Events != 4 {
			t.Fatalf("MaxBatch window batched %d events, want 4", r.Events)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("MaxBatch window never sealed")
	}
	// 1 event: only the timer can seal it.
	_ = p.Submit(AnnounceEvent(tPeerA, e.announce(t, tPeerA, pfxs[7], 3)))
	select {
	case r := <-windows:
		if r.Events != 1 {
			t.Fatalf("timer window batched %d events, want 1", r.Events)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timer window never sealed")
	}
}

// TestSubmitAfterClose: Close is idempotent and submissions after it fail
// with ErrClosed.
func TestSubmitAfterClose(t *testing.T) {
	e := newEnv(t, 2)
	p, err := New(Config{Engine: e.eng})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(AnnounceEvent(tPeerA, e.announce(t, tPeerA, testPrefixes(1)[0], 3))); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	if _, err := p.Flush(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after Close = %v, want ErrClosed", err)
	}
}

// TestSessionFeed runs a real bgp.Session pair over an in-process pipe:
// the remote speaker pumps UPDATEs, the plane ingests them through
// SessionFeed, and the next window seals the learned route.
func TestSessionFeed(t *testing.T) {
	e := newEnv(t, 2)
	p, err := New(Config{Engine: e.eng})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	pfx := testPrefixes(1)[0]
	ca, cb := netx.Pipe()
	feed := p.SessionFeed(tPeerA, func(r route.Route, u bgp.Update) (core.Announcement, error) {
		// Stand-in for attachment-based authentication: the test re-signs
		// the learned route as the peer (it holds the peer's key).
		return core.NewAnnouncement(e.signers[tPeerA], tPeerA, tProver, 1, r)
	})

	local := bgp.NewSession(ca, bgp.Open{ASN: tProver, RouterID: 1}, bgp.SessionHooks{OnUpdate: feed})
	remote := bgp.NewSession(cb, bgp.Open{ASN: tPeerA, RouterID: 2}, bgp.SessionHooks{})
	go func() { _ = local.Run(context.Background()) }()
	go func() { _ = remote.Run(context.Background()) }()
	defer local.Close()
	defer remote.Close()

	for remote.State() != bgp.StateEstablished {
		time.Sleep(time.Millisecond)
	}
	u := bgp.Update{Announced: []route.Route{{
		Prefix:  pfx,
		Path:    aspath.New(tPeerA),
		NextHop: netip.AddrFrom4([4]byte{192, 0, 2, 1}),
	}}}
	if err := remote.SendUpdate(u); err != nil {
		t.Fatal(err)
	}
	// Wait for the plane to apply the event, not merely for the feed to
	// authenticate it: a Flush before SessionFeed's Submit lands would seal
	// an empty window.
	deadline := time.Now().Add(2 * time.Second)
	for p.Stats().EventsIn != 1 {
		if time.Now().After(deadline) {
			t.Fatal("update never reached the plane")
		}
		time.Sleep(time.Millisecond)
	}
	res, err := p.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if res.DirtyPrefixes != 1 {
		t.Fatalf("dirty=%d, want 1", res.DirtyPrefixes)
	}
	sc, err := e.eng.Commitment(pfx)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Verify(e.reg); err != nil {
		t.Fatal(err)
	}
}
