package auditnet

import (
	"context"
	"errors"
	"testing"
	"time"

	"pvr/internal/netx"
)

// reconcileUnder bounds one Reconcile by ctx the way Respond's doc asks
// callers to: ctx ending closes the connection through context.AfterFunc,
// and a round that failed because of it reports ctx.Err.
func reconcileUnder(ctx context.Context, a *Auditor, c *netx.Conn) (*Stats, error) {
	stop := context.AfterFunc(ctx, func() { _ = c.Close() })
	defer stop()
	st, err := a.Reconcile(c)
	if err != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return st, err
}

// TestReconcileContextPreCancelled verifies a round started under a dead
// context fails with ctx.Err instead of blocking on the peer.
func TestReconcileContextPreCancelled(t *testing.T) {
	p := newTestPKI(t, 2)
	a := p.auditor(t, 1)
	ca, cb := netx.Pipe()
	defer ca.Close()
	defer cb.Close() // the "peer": accepts nothing, answers nothing
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	done := make(chan error, 1)
	go func() {
		_, err := reconcileUnder(ctx, a, ca)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Reconcile on cancelled ctx = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Reconcile under a cancelled ctx did not return")
	}
}

// TestReconcileContextCancelMidExchange verifies cancellation interrupts
// an exchange blocked on an unresponsive peer: the conn is torn down and
// ctx.Err comes back instead of hanging forever.
func TestReconcileContextCancelMidExchange(t *testing.T) {
	p := newTestPKI(t, 2)
	a := p.auditor(t, 1)
	a.AddRecord(p.record(t, 1, 1, "t", "payload"))
	ca, cb := netx.Pipe()
	defer cb.Close() // the "peer": accepts nothing, answers nothing
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := reconcileUnder(ctx, a, ca)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("Reconcile returned %v before cancel, want it blocked on the silent peer", err)
	default:
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Reconcile after cancel = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Reconcile did not return after cancel")
	}
}
