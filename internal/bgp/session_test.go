package bgp

import (
	"context"
	"errors"
	"testing"
	"time"

	"pvr/internal/netx"
	"pvr/internal/prefix"
	"pvr/internal/route"
)

func startPair(t *testing.T, holdA, holdB uint16) (sa, sb *Session, gotA, gotB chan Update, doneA, doneB chan error) {
	t.Helper()
	ca, cb := netx.Pipe()
	gotA, gotB = make(chan Update, 16), make(chan Update, 16)
	sa = NewSession(ca, Open{ASN: 64500, HoldTime: holdA, RouterID: 1}, SessionHooks{
		OnUpdate: func(u Update) { gotA <- u },
	})
	sb = NewSession(cb, Open{ASN: 64501, HoldTime: holdB, RouterID: 2}, SessionHooks{
		OnUpdate: func(u Update) { gotB <- u },
	})
	doneA, doneB = make(chan error, 1), make(chan error, 1)
	go func() { doneA <- sa.Run(context.Background()) }()
	go func() { doneB <- sb.Run(context.Background()) }()
	return
}

func waitEstablished(t *testing.T, ss ...*Session) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, s := range ss {
		for s.State() != StateEstablished {
			if time.Now().After(deadline) {
				t.Fatalf("session stuck in %s", s.State())
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func TestSessionHandshakeAndUpdate(t *testing.T) {
	sa, sb, _, gotB, doneA, doneB := startPair(t, 0, 0)
	waitEstablished(t, sa, sb)

	if sa.Peer().ASN != 64501 || sb.Peer().ASN != 64500 {
		t.Errorf("peer OPENs wrong: %v %v", sa.Peer(), sb.Peer())
	}

	u := Update{Announced: []route.Route{testRoute("203.0.113.0/24", 64500)}}
	if err := sa.SendUpdate(u); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-gotB:
		if len(got.Announced) != 1 || !got.Announced[0].Equal(u.Announced[0]) {
			t.Error("update mismatch")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("update not delivered")
	}

	sa.Close()
	if err := <-doneA; err != nil {
		t.Errorf("A terminated with %v", err)
	}
	// B sees the CEASE notification as an error end.
	if err := <-doneB; err == nil {
		t.Log("B closed cleanly (race with pipe close)")
	} else if !errors.Is(err, ErrNotifyRecv) && !errors.Is(err, netx.ErrClosed) {
		t.Errorf("B terminated with %v", err)
	}
}

func TestSessionEstablishedHook(t *testing.T) {
	ca, cb := netx.Pipe()
	est := make(chan Open, 1)
	sa := NewSession(ca, Open{ASN: 1, RouterID: 1}, SessionHooks{
		OnEstablished: func(o Open) { est <- o },
	})
	sb := NewSession(cb, Open{ASN: 2, RouterID: 2}, SessionHooks{})
	go sa.Run(context.Background())
	go sb.Run(context.Background())
	select {
	case o := <-est:
		if o.ASN != 2 {
			t.Errorf("established with %v", o.ASN)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("OnEstablished not called")
	}
	sa.Close()
	sb.Close()
}

func TestSessionSendBeforeEstablished(t *testing.T) {
	ca, _ := netx.Pipe()
	s := NewSession(ca, Open{ASN: 1}, SessionHooks{})
	if err := s.SendUpdate(Update{}); !errors.Is(err, ErrFSM) {
		t.Errorf("send in Idle: %v", err)
	}
}

func TestSessionRejectsNonOpenFirst(t *testing.T) {
	ca, cb := netx.Pipe()
	s := NewSession(ca, Open{ASN: 1}, SessionHooks{})
	done := make(chan error, 1)
	go func() { done <- s.Run(context.Background()) }()
	// Peer sends KEEPALIVE instead of OPEN.
	go func() {
		_, _ = cb.Recv() // absorb A's OPEN
		_ = cb.Send(netx.Frame{Type: uint8(MsgKeepalive)})
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrFSM) {
			t.Errorf("Run = %v, want FSM error", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("session did not fail")
	}
}

func TestSessionNotificationTearsDown(t *testing.T) {
	sa, sb, _, _, doneA, _ := startPair(t, 0, 0)
	waitEstablished(t, sa, sb)
	sb.notify(Notification{Code: NotifyCease, Subcode: 9})
	select {
	case err := <-doneA:
		if !errors.Is(err, ErrNotifyRecv) {
			t.Errorf("A ended with %v, want notification", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("A did not tear down")
	}
	sb.Close()
}

func TestSessionKeepalivesMaintainHold(t *testing.T) {
	// 1-second hold time: keepalives every ~333ms must keep it alive well
	// past one hold interval.
	sa, sb, _, _, doneA, doneB := startPair(t, 1, 1)
	waitEstablished(t, sa, sb)
	select {
	case err := <-doneA:
		t.Fatalf("A died during hold test: %v", err)
	case err := <-doneB:
		t.Fatalf("B died during hold test: %v", err)
	case <-time.After(2500 * time.Millisecond):
	}
	sa.Close()
	sb.Close()
}

func TestSessionOverTCP(t *testing.T) {
	updates := make(chan Update, 1)
	accepted := make(chan *Session, 1)
	addr, closer, err := netx.Listen("127.0.0.1:0", func(c *netx.Conn) {
		s := NewSession(c, Open{ASN: 65001, HoldTime: 3, RouterID: 9}, SessionHooks{
			OnUpdate: func(u Update) { updates <- u },
		})
		accepted <- s
		_ = s.Run(context.Background())
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closer.Close()

	conn, err := netx.Dial(addr.String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	client := NewSession(conn, Open{ASN: 65002, HoldTime: 3, RouterID: 10}, SessionHooks{})
	go client.Run(context.Background())
	waitEstablished(t, client)

	u := Update{Withdrawn: []prefix.Prefix{prefix.MustParse("10.0.0.0/8")}}
	if err := client.SendUpdate(u); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-updates:
		if len(got.Withdrawn) != 1 {
			t.Error("withdraw lost over TCP")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("update not delivered over TCP")
	}
	client.Close()
	if srv := <-accepted; srv != nil {
		srv.Close()
	}
}

func TestSessionStateString(t *testing.T) {
	for st, want := range map[SessionState]string{
		StateIdle: "Idle", StateOpenSent: "OpenSent", StateOpenConfirm: "OpenConfirm",
		StateEstablished: "Established", StateClosed: "Closed", SessionState(9): "state(9)",
	} {
		if st.String() != want {
			t.Errorf("%d.String() = %q", st, st.String())
		}
	}
}
