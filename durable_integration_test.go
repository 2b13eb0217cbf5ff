package pvr_test

// Public-API-only durability tests: a Participant is killed mid-window
// by a fault injected into its real write path (not a mock), reopened
// on the same store, and must resume the sealed window sequence past
// everything it ever published — while trust-on-first-use pins and
// convictions survive restarts of the peer that holds them.

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"pvr"
)

func TestParticipantCrashRestartDurability(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	mem := pvr.NewMemTransport()

	// Identity keys outlive the "process": a restart passes the same
	// signer, the way a daemon reloads its key file.
	sA, err := pvr.GenerateEd25519()
	if err != nil {
		t.Fatal(err)
	}
	sB, err := pvr.GenerateEd25519()
	if err != nil {
		t.Fatal(err)
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	faultA := pvr.NewStoreFault()

	// The churn provider only signs the routes it offers A: a
	// Participant with no listener and no peers.
	provider, err := pvr.Open(ctx, pvr.WithASN(64700), pvr.WithTransport(mem), pvr.WithHoldTime(0))
	if err != nil {
		t.Fatal(err)
	}
	defer provider.Close()
	providerKey, err := provider.Registry().Lookup(provider.ASN())
	if err != nil {
		t.Fatal(err)
	}

	pfxs := []pvr.Prefix{
		pvr.MustParsePrefix("203.0.113.0/24"),
		pvr.MustParsePrefix("198.51.100.0/24"),
		pvr.MustParsePrefix("192.0.2.0/24"),
	}
	openA := func(extra ...pvr.Option) (*pvr.Participant, error) {
		opts := []pvr.Option{
			pvr.WithASN(64500),
			pvr.WithTransport(mem),
			pvr.WithSigner(sA),
			pvr.WithOriginate(pfxs...),
			pvr.WithShards(4),
			pvr.WithWindow(0),
			pvr.WithListen("a"),
			pvr.WithGossipListen("ga"),
			pvr.WithStore(dirA),
			pvr.WithStoreFault(faultA),
			pvr.WithHoldTime(0),
			pvr.WithLogf(t.Logf),
		}
		a, err := pvr.Open(ctx, append(opts, extra...)...)
		if err != nil {
			return nil, err
		}
		// A runs a private trust-on-first-use registry; the churn
		// provider's key arrives out of band.
		a.Registry().Register(provider.ASN(), providerKey)
		return a, nil
	}

	a, err := openA()
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if st := a.Stats().Store; !st.Enabled || st.RecoveredEpoch != 0 {
		t.Fatalf("first boot recovered epoch %d, want a cold start", st.RecoveredEpoch)
	}

	// B dials A, pins A's key trust-on-first-use, and persists the pin
	// in its own store. It also listens so the restarted A can dial back.
	b, err := pvr.Open(ctx,
		pvr.WithASN(64501),
		pvr.WithTransport(mem),
		pvr.WithSigner(sB),
		pvr.WithPeers("a"),
		pvr.WithListen("b"),
		pvr.WithGossipListen("gb"),
		pvr.WithStore(dirB),
		pvr.WithWindow(0),
		pvr.WithHoldTime(0),
		pvr.WithLogf(t.Logf),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	waitFor(t, "B to verify A's table", func() bool {
		return b.Stats().RoutesVerified >= uint64(len(pfxs))
	})

	// Advance the sealed sequence with live churn so the crash lands on
	// a participant with published history.
	for round := 0; round < 2; round++ {
		ann, err := provider.Announce(a.ASN(), 1, pvr.Route{
			Prefix:  pfxs[0],
			Path:    pvr.NewPath(provider.ASN(), pvr.ASN(64800+uint32(round))),
			NextHop: netip.MustParseAddr("192.0.2.1"),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Submit(ctx, pvr.AnnounceEvent(provider.ASN(), ann)); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	windowPublished := a.Stats().Window
	waitFor(t, "B to verify the churn re-advertisements", func() bool {
		return b.Stats().RoutesVerified >= uint64(len(pfxs)+2)
	})

	// Kill A mid-window: the write-ahead window record of the next seal
	// tears partway through the WAL append, and the store behaves dead
	// from then on. Publication of the torn window must be suppressed.
	faultA.CrashAfterBytes(8)
	ann, err := provider.Announce(a.ASN(), 1, pvr.Route{
		Prefix:  pfxs[1],
		Path:    pvr.NewPath(provider.ASN(), 64999),
		NextHop: netip.MustParseAddr("192.0.2.1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Submit(ctx, pvr.AnnounceEvent(provider.ASN(), ann)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if !faultA.Crashed() {
		t.Fatal("armed crash did not trip on the mid-window WAL append")
	}
	a.Close()
	// B's count before the restart: A2 dials B inside Open, so B may verify
	// the re-sealed table before Open even returns.
	verified := b.Stats().RoutesVerified

	// Restart on the same store. Recovery must surface the last window
	// that could have been published (the torn one was not), and the
	// engine must resume past it — never reusing a published window
	// number, which peers would read as equivocation.
	a2, err := openA(pvr.WithPeers("b"))
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer a2.Close()
	st := a2.Stats()
	if !st.Store.Enabled || st.Store.RecoveredEpoch != 1 {
		t.Fatalf("recovered epoch = %d, want 1", st.Store.RecoveredEpoch)
	}
	if st.Store.RecoveredWindow != windowPublished {
		t.Fatalf("recovered window = %d, want last published %d", st.Store.RecoveredWindow, windowPublished)
	}
	if st.Store.RecoveredRecords == 0 {
		t.Fatal("crash restart replayed no WAL records")
	}
	if st.Window != windowPublished+1 {
		t.Fatalf("post-restart seal window = %d, want %d (recovered+1)", st.Window, windowPublished+1)
	}

	// B — never restarted, still holding every pre-crash seal statement —
	// verifies the re-sealed table over the fresh session without
	// convicting A: re-seals after restart are not equivocations.
	waitFor(t, "B to verify A's post-restart table", func() bool {
		return b.Stats().RoutesVerified >= verified+uint64(len(pfxs))
	})
	if b.Auditor().Convicted(a2.ASN()) {
		t.Fatal("B convicted A for restarting (false equivocation)")
	}

	// A genuine post-restart equivocation still convicts. B first pulls
	// A's full statement set over gossip, so the forgery lands on a
	// topic B genuinely holds.
	if _, err := b.Reconcile(ctx, "ga"); err != nil {
		t.Fatal(err)
	}
	seals := a2.Engine().Seals()
	if len(seals) == 0 {
		t.Fatal("A2 has no seals")
	}
	genuine := seals[0].Statement()
	forged, err := a2.SignStatement(genuine.Topic, append(append([]byte(nil), genuine.Payload...), 0xFF))
	if err != nil {
		t.Fatal(err)
	}
	_, conflict, err := b.Auditor().AddRecord(pvr.AuditRecord{Epoch: seals[0].Epoch, S: forged})
	if err != nil {
		t.Fatal(err)
	}
	if conflict == nil {
		t.Fatal("post-restart equivocation went undetected")
	}
	if !b.Auditor().Convicted(a2.ASN()) {
		t.Fatal("B did not convict A after the post-restart equivocation")
	}

	// Restart B: the trust-on-first-use pin and the conviction both
	// survive — the pin from the state store, the conviction from the
	// evidence ledger riding the same backend (replayed and re-verified,
	// never trusted as stored bytes).
	b.Close()
	b2, err := pvr.Open(ctx,
		pvr.WithASN(64501),
		pvr.WithTransport(mem),
		pvr.WithSigner(sB),
		pvr.WithGossipListen("gb"),
		pvr.WithStore(dirB),
		pvr.WithWindow(0),
		pvr.WithHoldTime(0),
		pvr.WithLogf(t.Logf),
	)
	if err != nil {
		t.Fatalf("reopen B: %v", err)
	}
	defer b2.Close()
	if got := b2.Stats().Store.RecoveredPins; got != 1 {
		t.Fatalf("B recovered %d pins, want 1 (A's key)", got)
	}
	if !b2.Auditor().Convicted(a2.ASN()) {
		t.Fatal("conviction did not survive B's restart")
	}

	// And it spreads network-wide from the restarted holder: C picks the
	// evidence up over gossip and convicts too.
	c, err := pvr.Open(ctx,
		pvr.WithASN(64502),
		pvr.WithTransport(mem),
		pvr.WithHoldTime(0),
		pvr.WithLogf(t.Logf),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Registry().Register(a2.ASN(), sA.Public())
	if c.Auditor().Convicted(a2.ASN()) {
		t.Fatal("C convicted A before gossiping with anyone")
	}
	if _, err := c.Reconcile(ctx, "gb"); err != nil {
		t.Fatal(err)
	}
	if !c.Auditor().Convicted(a2.ASN()) {
		t.Fatal("C did not convict A from evidence gossiped after B's restart")
	}
}

// TestCleanShutdownNeedsNoReplay pins the graceful-shutdown contract:
// Close checkpoints (final group commit + snapshot), so the next boot
// recovers entirely from the snapshot with zero WAL records to replay.
func TestCleanShutdownNeedsNoReplay(t *testing.T) {
	ctx := context.Background()
	ms := pvr.NewMemStore()
	s, err := pvr.GenerateEd25519()
	if err != nil {
		t.Fatal(err)
	}
	open := func() *pvr.Participant {
		t.Helper()
		p, err := pvr.Open(ctx,
			pvr.WithASN(64510),
			pvr.WithSigner(s),
			pvr.WithStoreBackend(ms),
			pvr.WithOriginate(pvr.MustParsePrefix("203.0.113.0/24")),
			pvr.WithShards(2),
			pvr.WithWindow(0),
			pvr.WithHoldTime(0),
		)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	p := open()
	w := p.Stats().Window // the open-time epoch seal (window 0 on a cold start)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2 := open()
	st := p2.Stats()
	if st.Store.RecoveredRecords != 0 {
		t.Fatalf("clean shutdown left %d WAL records to replay, want 0", st.Store.RecoveredRecords)
	}
	if st.Store.RecoveredWindow != w {
		t.Fatalf("recovered window = %d, want %d", st.Store.RecoveredWindow, w)
	}
	if st.Window != w+1 {
		t.Fatalf("resumed seal window = %d, want %d", st.Window, w+1)
	}
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}

	p3 := open()
	defer p3.Close()
	if got := p3.Stats().Store.RecoveredRecords; got != 0 {
		t.Fatalf("second clean restart replayed %d records, want 0", got)
	}
	if got := p3.Stats().Window; got != w+2 {
		t.Fatalf("windows across restarts = %d, want strictly advancing to %d", got, w+2)
	}
}
