package bgp

import (
	"context"
	"testing"
	"time"

	"pvr/internal/netx"
)

// TestRunContextCancelClosesSession verifies Run tears the session
// down cleanly — CEASE then transport close, a nil return — when its
// context is cancelled mid-session.
func TestRunContextCancelClosesSession(t *testing.T) {
	ca, cb := netx.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	sa := NewSession(ca, Open{ASN: 64500, RouterID: 1}, SessionHooks{})
	sb := NewSession(cb, Open{ASN: 64501, RouterID: 2}, SessionHooks{})
	doneA := make(chan error, 1)
	go func() { doneA <- sa.Run(ctx) }()
	go func() { _ = sb.Run(context.Background()) }()

	deadline := time.Now().Add(5 * time.Second)
	for sa.State() != StateEstablished {
		if time.Now().After(deadline) {
			t.Fatalf("session stuck in %s", sa.State())
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-doneA:
		if err != nil {
			t.Fatalf("Run after cancel = %v, want nil (clean close)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	if sa.State() != StateClosed {
		t.Fatalf("state after cancel = %s, want Closed", sa.State())
	}
}

// TestRunContextCancelDuringHandshake pins the clean-close contract for
// a cancellation that lands before the session ever establishes: the
// peer never answers the OPEN, ctx is cancelled, and Run must
// still return nil rather than the raw transport error.
func TestRunContextCancelDuringHandshake(t *testing.T) {
	ca, cb := netx.Pipe()
	defer cb.Close()
	ctx, cancel := context.WithCancel(context.Background())
	s := NewSession(ca, Open{ASN: 64500, RouterID: 1}, SessionHooks{})
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	time.Sleep(10 * time.Millisecond) // let the handshake block on Recv
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run cancelled mid-handshake = %v, want nil (clean close)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel during handshake")
	}
}

// TestRunContextBackgroundEquivalent pins that a session run under a
// context that never ends (nothing for AfterFunc to watch) still ends
// normally on Close.
func TestRunContextBackgroundEquivalent(t *testing.T) {
	ca, cb := netx.Pipe()
	sa := NewSession(ca, Open{ASN: 64500, RouterID: 1}, SessionHooks{})
	sb := NewSession(cb, Open{ASN: 64501, RouterID: 2}, SessionHooks{})
	doneA := make(chan error, 1)
	go func() { doneA <- sa.Run(context.Background()) }()
	go func() { _ = sb.Run(context.Background()) }()
	deadline := time.Now().Add(5 * time.Second)
	for sa.State() != StateEstablished {
		if time.Now().After(deadline) {
			t.Fatalf("session stuck in %s", sa.State())
		}
		time.Sleep(time.Millisecond)
	}
	sa.Close()
	select {
	case err := <-doneA:
		if err != nil {
			t.Fatalf("Run after Close = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after Close")
	}
}
