package bgp

import (
	"context"
	"errors"
	"net/netip"
	"sync"
	"testing"
	"time"

	"pvr/internal/aspath"
	"pvr/internal/netx"
	"pvr/internal/prefix"
	"pvr/internal/route"
)

// establishPair brings up two sessions over an in-process pipe and waits
// for both to reach Established.
func establishPair(t *testing.T) (*Session, *Session) {
	t.Helper()
	ca, cb := netx.Pipe()
	a := NewSession(ca, Open{ASN: 64500, RouterID: 1}, SessionHooks{})
	b := NewSession(cb, Open{ASN: 64501, RouterID: 2}, SessionHooks{})
	go func() { _ = a.Run(context.Background()) }()
	go func() { _ = b.Run(context.Background()) }()
	deadline := time.Now().Add(5 * time.Second)
	for a.State() != StateEstablished || b.State() != StateEstablished {
		if time.Now().After(deadline) {
			t.Fatalf("handshake stalled: %s / %s", a.State(), b.State())
		}
		time.Sleep(time.Millisecond)
	}
	return a, b
}

// TestSessionCloseSendUpdateRace hammers SendUpdate from several
// goroutines while the session is closed mid-pump: every send must
// return either nil or a clean error (ErrSessionClosed / ErrFSM) — no
// panic, no deadlock, no raw transport error for the close the caller
// itself initiated. Run under -race.
func TestSessionCloseSendUpdateRace(t *testing.T) {
	for round := 0; round < 8; round++ {
		a, b := establishPair(t)
		u := Update{Announced: []route.Route{{
			Prefix:  prefix.MustParse("203.0.113.0/24"),
			Path:    aspath.New(64500),
			NextHop: netip.AddrFrom4([4]byte{192, 0, 2, 1}),
		}}}

		const senders = 4
		var wg sync.WaitGroup
		errs := make(chan error, senders*64)
		start := make(chan struct{})
		for w := 0; w < senders; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 64; i++ {
					if err := a.SendUpdate(u); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
		done := make(chan struct{})
		go func() {
			close(start)
			a.Close() // races the senders
			close(done)
		}()

		waited := make(chan struct{})
		go func() { wg.Wait(); close(waited) }()
		select {
		case <-waited:
		case <-time.After(10 * time.Second):
			t.Fatal("senders deadlocked against Close")
		}
		<-done
		close(errs)
		for err := range errs {
			if !errors.Is(err, ErrSessionClosed) && !errors.Is(err, ErrFSM) {
				t.Fatalf("round %d: send after close returned %v, want ErrSessionClosed or ErrFSM", round, err)
			}
		}
		b.Close()
	}
}

// TestSessionSendAfterCloseIsClean: after Close has returned, SendUpdate
// must deterministically fail with a clean error.
func TestSessionSendAfterCloseIsClean(t *testing.T) {
	a, b := establishPair(t)
	defer b.Close()
	a.Close()
	u := Update{Withdrawn: []prefix.Prefix{prefix.MustParse("203.0.113.0/24")}}
	err := a.SendUpdate(u)
	if err == nil {
		t.Fatal("SendUpdate succeeded on a closed session")
	}
	if !errors.Is(err, ErrSessionClosed) && !errors.Is(err, ErrFSM) {
		t.Fatalf("SendUpdate after Close = %v, want ErrSessionClosed or ErrFSM", err)
	}
	// Close is idempotent even with sends in flight.
	a.Close()
}
