package pvr_test

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"pvr"
)

// testFleet opens Participants for one test on a shared in-memory transport
// and a shared out-of-band registry, closing them when the test ends.
type testFleet struct {
	t   *testing.T
	ctx context.Context
	mem *pvr.MemTransport
	reg *pvr.Registry
}

func newTestFleet(t *testing.T) *testFleet {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return &testFleet{t: t, ctx: ctx, mem: pvr.NewMemTransport(), reg: pvr.NewRegistry()}
}

func (f *testFleet) open(asn pvr.ASN, opts ...pvr.Option) *pvr.Participant {
	f.t.Helper()
	p, err := pvr.Open(f.ctx, append([]pvr.Option{
		pvr.WithASN(asn), pvr.WithTransport(f.mem), pvr.WithRegistry(f.reg),
		pvr.WithHoldTime(0), pvr.WithLogf(f.t.Logf),
	}, opts...)...)
	if err != nil {
		f.t.Fatal(err)
	}
	f.t.Cleanup(func() { p.Close() })
	return p
}

// announce has provider offer prover a route for pfx of the given path
// length and feeds it into the prover's update plane.
func (f *testFleet) announce(provider, prover *pvr.Participant, pfx pvr.Prefix, length int) pvr.Announcement {
	f.t.Helper()
	asns := make([]pvr.ASN, length)
	asns[0] = provider.ASN()
	for i := 1; i < length; i++ {
		asns[i] = pvr.ASN(65000 + i)
	}
	ann, err := provider.Announce(prover.ASN(), 1, pvr.Route{
		Prefix:  pfx,
		Path:    pvr.NewPath(asns...),
		NextHop: netip.MustParseAddr("192.0.2.1"),
	})
	if err != nil {
		f.t.Fatal(err)
	}
	if err := prover.Submit(f.ctx, pvr.AnnounceEvent(provider.ASN(), ann)); err != nil {
		f.t.Fatal(err)
	}
	return ann
}

// TestPublicAPIMinProtocol runs the §3.3 minimum-operator protocol
// through the public surface only: two providers announce routes for one
// prefix to A, A seals them in a window, each provider verifies its
// opened bit, and the promisee B verifies the full vector and that the
// export is the shorter route.
func TestPublicAPIMinProtocol(t *testing.T) {
	f := newTestFleet(t)
	a := f.open(64500, pvr.WithWindow(0), pvr.WithDiscloseListen("a"), pvr.WithPromisees(64503))
	n1, n2, b := f.open(64501), f.open(64502), f.open(64503)

	pfx := pvr.MustParsePrefix("203.0.113.0/24")
	ann1 := f.announce(n1, a, pfx, 5)
	ann2 := f.announce(n2, a, pfx, 2)
	if _, err := a.Flush(f.ctx); err != nil {
		t.Fatal(err)
	}

	// Providers verify.
	for _, c := range []struct {
		n   *pvr.Participant
		ann pvr.Announcement
	}{{n1, ann1}, {n2, ann2}} {
		if _, err := c.n.QueryDisclosure(f.ctx, "a", pvr.Query{
			Prefix: pfx, Epoch: 1, Role: pvr.RoleProvider, Prover: a.ASN(), Announcement: &c.ann,
		}); err != nil {
			t.Errorf("%s: %v", c.n.ASN(), err)
		}
	}
	// Promisee verifies; winner is N2's length-2 route.
	d, err := b.RequestDisclosure(f.ctx, "a", pfx, 1)
	if err != nil {
		t.Fatalf("B: %v", err)
	}
	if w := d.Promisee.Winner; w == nil || w.Provider != n2.ASN() {
		t.Errorf("winner = %+v", w)
	}
}

// TestPublicAPIEngine exercises the sharded multi-prefix engine through
// the public surface: a provider's routes for many prefixes are ingested
// and sealed in one window, every shard seal verifies against the shared
// registry, and both disclosure kinds verify for every prefix.
func TestPublicAPIEngine(t *testing.T) {
	f := newTestFleet(t)
	a := f.open(64500, pvr.WithShards(4), pvr.WithMaxLen(16), pvr.WithWindow(0),
		pvr.WithDiscloseListen("a"), pvr.WithPromisees(64503))
	n1, b := f.open(64501), f.open(64503)

	var (
		pfxs []pvr.Prefix
		anns []pvr.Announcement
	)
	for i := 0; i < 20; i++ {
		pfx := pvr.MustParsePrefix(fmt.Sprintf("10.0.%d.0/24", i))
		pfxs = append(pfxs, pfx)
		anns = append(anns, f.announce(n1, a, pfx, 1+i%16))
	}
	w, err := a.Flush(f.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if w.DirtyPrefixes != len(pfxs) {
		t.Fatalf("window sealed %d dirty prefixes, want %d", w.DirtyPrefixes, len(pfxs))
	}

	seals := a.Engine().Seals()
	if len(seals) == 0 {
		t.Fatal("no shard seals")
	}
	for _, s := range seals {
		if err := s.Verify(f.reg); err != nil {
			t.Fatal(err)
		}
	}
	for i, pfx := range pfxs {
		if _, err := n1.QueryDisclosure(f.ctx, "a", pvr.Query{
			Prefix: pfx, Epoch: 1, Role: pvr.RoleProvider, Prover: a.ASN(), Announcement: &anns[i],
		}); err != nil {
			t.Fatalf("%s provider view: %v", pfx, err)
		}
		if _, err := b.RequestDisclosure(f.ctx, "a", pfx, 1); err != nil {
			t.Fatalf("%s promisee view: %v", pfx, err)
		}
	}
}

// TestPublicAPIGossip exercises audit gossip through the public surface:
// a participant that seals nothing holds no statements, one
// reconciliation with a peer's audit endpoint moves every one of the
// peer's seal statements, and a second moves nothing new.
func TestPublicAPIGossip(t *testing.T) {
	f := newTestFleet(t)
	a := f.open(64500, pvr.WithShards(2), pvr.WithGossipListen("ga"),
		pvr.WithOriginate(pvr.MustParsePrefix("203.0.113.0/24"), pvr.MustParsePrefix("198.51.100.0/24")))
	b := f.open(64501)

	if got := b.Stats().AuditRecords; got != 0 {
		t.Errorf("fresh participant holds %d statements", got)
	}
	st, err := b.Reconcile(f.ctx, "ga")
	if err != nil {
		t.Fatal(err)
	}
	want := a.Stats().AuditRecords
	if want == 0 || st.NewStatements != want || b.Stats().AuditRecords != want {
		t.Fatalf("reconcile moved %d statements, B holds %d; A holds %d", st.NewStatements, b.Stats().AuditRecords, want)
	}
	if st, err = b.Reconcile(f.ctx, "ga"); err != nil {
		t.Fatal(err)
	} else if st.NewStatements != 0 {
		t.Fatalf("second reconcile moved %d statements, want 0", st.NewStatements)
	}
}

// TestPublicAPIAuditNetwork exercises the audit network through the
// public surface: A's shard seals reach B by reconciliation, an injected
// equivocation is convicted, the evidence persists in B's ledger so a
// participant opened on it starts convicted, and the conviction gates
// that participant's disclosure queries to A.
func TestPublicAPIAuditNetwork(t *testing.T) {
	f := newTestFleet(t)
	pfx := pvr.MustParsePrefix("203.0.113.0/24")
	a := f.open(64500, pvr.WithShards(2), pvr.WithOriginate(pfx),
		pvr.WithGossipListen("ga"), pvr.WithDiscloseListen("da"))
	ledger := t.TempDir() + "/audit.ledger"
	b := f.open(64501, pvr.WithLedger(ledger))

	if _, err := b.Reconcile(f.ctx, "ga"); err != nil {
		t.Fatal(err)
	}
	// A signs a second, different payload on one of its live seal topics.
	seals := a.Engine().Seals()
	genuine := seals[0].Statement()
	forged, err := a.SignStatement(genuine.Topic, append(append([]byte(nil), genuine.Payload...), 0xFF))
	if err != nil {
		t.Fatal(err)
	}
	if _, conflict, err := b.Auditor().AddRecord(pvr.AuditRecord{Epoch: seals[0].Epoch, S: forged}); err != nil {
		t.Fatal(err)
	} else if conflict == nil {
		t.Fatal("forged seal statement not detected")
	}
	if !b.Auditor().Convicted(a.ASN()) || b.Stats().Convictions != 1 {
		t.Fatalf("convictions = %+v", b.Auditor().Convictions())
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	c := f.open(64502, pvr.WithLedger(ledger))
	if !c.Auditor().Convicted(a.ASN()) {
		t.Fatal("conviction did not survive the ledger")
	}
	if _, err := c.QueryDisclosure(f.ctx, "da", pvr.Query{Prefix: pfx, Epoch: 1, Role: pvr.RoleObserver}); !errors.Is(err, pvr.ErrConvicted) {
		t.Fatalf("query to a convicted prover: %v, want ErrConvicted", err)
	}
}

// TestNetworkDuplicateASN pins duplicate-ASN handling on a shared
// registry: a second Participant opened for a registered ASN fails with
// ErrConfig, and the first keeps its key and its sole membership.
func TestNetworkDuplicateASN(t *testing.T) {
	f := newTestFleet(t)
	first := f.open(64500)
	if _, err := pvr.Open(f.ctx, pvr.WithASN(64500), pvr.WithTransport(f.mem), pvr.WithRegistry(f.reg)); err == nil {
		t.Fatal("duplicate Open succeeded")
	} else if !errors.Is(err, pvr.ErrConfig) {
		t.Fatalf("duplicate Open error = %v, want ErrConfig", err)
	}
	st, err := first.SignStatement("t", []byte("still me"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.reg.Verify(64500, st.Payload, st.Sig); err != nil {
		t.Fatalf("original key displaced by failed duplicate Open: %v", err)
	}
	if got := f.reg.Members(); len(got) != 1 {
		t.Fatalf("members = %v, want just 64500", got)
	}
}

// TestNetworkConcurrentAddAndMembers opens Participants from many
// goroutines against one shared registry while readers list and resolve
// its members; run under -race this pins the registry's locking and
// Open's atomic check-and-install of each participant's key.
func TestNetworkConcurrentAddAndMembers(t *testing.T) {
	f := newTestFleet(t)
	const writers, readers, perWriter = 4, 4, 3

	var (
		writeWG, readWG sync.WaitGroup
		mu              sync.Mutex
		opened          []*pvr.Participant
	)
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 0; i < perWriter; i++ {
				p, err := pvr.Open(f.ctx, pvr.WithASN(pvr.ASN(1000+w*perWriter+i)),
					pvr.WithTransport(f.mem), pvr.WithRegistry(f.reg), pvr.WithHoldTime(0))
				if err != nil {
					t.Errorf("Open: %v", err)
					continue
				}
				mu.Lock()
				opened = append(opened, p)
				mu.Unlock()
			}
		}(w)
	}
	done := make(chan struct{})
	for r := 0; r < readers; r++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				members := f.reg.Members()
				for i := 1; i < len(members); i++ {
					if members[i-1] >= members[i] {
						t.Errorf("Members not strictly ascending: %v", members)
						return
					}
				}
				for _, asn := range members {
					if _, err := f.reg.Lookup(asn); err != nil {
						t.Errorf("listed member %s not found", asn)
						return
					}
				}
			}
		}()
	}
	writeWG.Wait()
	close(done)
	readWG.Wait()
	for _, p := range opened {
		p.Close()
	}

	if got := len(f.reg.Members()); got != writers*perWriter {
		t.Fatalf("members = %d, want %d", got, writers*perWriter)
	}
}
