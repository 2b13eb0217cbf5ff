package bgp

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"pvr/internal/netx"
)

// SessionState is the BGP finite-state machine state (RFC 4271 §8 reduced
// to the states reachable over an already-established transport).
type SessionState uint8

// FSM states.
const (
	StateIdle SessionState = iota
	StateOpenSent
	StateOpenConfirm
	StateEstablished
	StateClosed
)

// String names the state.
func (s SessionState) String() string {
	switch s {
	case StateIdle:
		return "Idle"
	case StateOpenSent:
		return "OpenSent"
	case StateOpenConfirm:
		return "OpenConfirm"
	case StateEstablished:
		return "Established"
	case StateClosed:
		return "Closed"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Errors returned by sessions.
var (
	ErrSessionClosed = errors.New("bgp: session closed")
	ErrNotifyRecv    = errors.New("bgp: notification received")
	ErrFSM           = errors.New("bgp: FSM violation")
)

// SessionHooks receives session events; any hook may be nil.
type SessionHooks struct {
	// OnUpdate is called for each UPDATE received while Established.
	OnUpdate func(Update)
	// OnEstablished is called once when the handshake completes, with the
	// peer's OPEN parameters.
	OnEstablished func(Open)
	// OnClose is called once when the session ends, with the cause.
	OnClose func(error)
	// Metrics, when non-nil, receives session-plane counters; one instance
	// is typically shared by every session of a speaker.
	Metrics *Metrics
}

// Session runs the BGP FSM over a framed connection: OPEN exchange,
// keepalive generation, hold-timer enforcement, and update dispatch. It is
// safe for concurrent SendUpdate calls.
type Session struct {
	conn  netx.FrameConn
	local Open
	hooks SessionHooks

	mu     sync.Mutex
	state  SessionState
	peer   Open
	err    error
	closed chan struct{}
}

// NewSession wraps a connection; call Run to perform the handshake and
// pump messages. HoldTime 0 in local disables keepalives and hold timing
// (useful in tests). Any netx.FrameConn works: a TCP *netx.Conn, a
// net.Pipe half, or an in-memory transport connection.
func NewSession(conn netx.FrameConn, local Open, hooks SessionHooks) *Session {
	return &Session{conn: conn, local: local, hooks: hooks, closed: make(chan struct{})}
}

// State returns the current FSM state.
func (s *Session) State() SessionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Peer returns the neighbor's OPEN parameters once Established.
func (s *Session) Peer() Open {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peer
}

func (s *Session) setState(st SessionState) {
	s.mu.Lock()
	s.state = st
	s.mu.Unlock()
}

// Run performs the handshake and then pumps inbound messages until the
// session ends; it returns the terminal error (nil on clean Close). When
// ctx ends the session is Closed (CEASE, then transport teardown) and Run
// returns nil, exactly as if Close had been called. Run blocks; callers
// usually invoke it on its own goroutine.
func (s *Session) Run(ctx context.Context) error {
	stop := context.AfterFunc(ctx, s.Close)
	defer stop()
	err := s.handshake()
	if err != nil {
		// A Close (or ctx ending) racing the handshake makes Recv fail
		// with a raw transport error; report the session closure the
		// caller itself initiated, exactly as pump does.
		select {
		case <-s.closed:
			err = ErrSessionClosed
		default:
		}
	} else {
		s.hooks.Metrics.sessionEstablished()
		if s.hooks.OnEstablished != nil {
			s.hooks.OnEstablished(s.Peer())
		}
		err = s.pump()
	}
	s.finish(err)
	if errors.Is(err, ErrSessionClosed) {
		return nil
	}
	return err
}

// handshake exchanges OPENs and confirming KEEPALIVEs. Sends run on their
// own goroutine so two symmetric peers over a rendezvous transport (e.g.
// net.Pipe) cannot deadlock each other.
func (s *Session) handshake() error {
	body, err := s.local.MarshalBinary()
	if err != nil {
		return err
	}
	s.setState(StateOpenSent)
	sendErr := make(chan error, 1)
	go func() {
		if err := s.conn.Send(netx.Frame{Type: uint8(MsgOpen), Payload: body}); err != nil {
			sendErr <- err
			return
		}
		sendErr <- s.conn.Send(netx.Frame{Type: uint8(MsgKeepalive)})
	}()
	f, err := s.conn.Recv()
	if err != nil {
		return err
	}
	if MsgType(f.Type) != MsgOpen {
		return fmt.Errorf("%w: expected OPEN, got %s", ErrFSM, MsgType(f.Type))
	}
	var peer Open
	if err := peer.UnmarshalBinary(f.Payload); err != nil {
		return err
	}
	s.mu.Lock()
	s.peer = peer
	s.state = StateOpenConfirm
	s.mu.Unlock()
	f, err = s.conn.Recv()
	if err != nil {
		return err
	}
	if MsgType(f.Type) != MsgKeepalive {
		return fmt.Errorf("%w: expected KEEPALIVE, got %s", ErrFSM, MsgType(f.Type))
	}
	if err := <-sendErr; err != nil {
		return err
	}
	s.setState(StateEstablished)
	return nil
}

func (s *Session) pump() error {
	hold := time.Duration(s.local.HoldTime) * time.Second
	stopKA := make(chan struct{})
	var kaWG sync.WaitGroup
	if hold > 0 {
		kaWG.Add(1)
		go func() {
			defer kaWG.Done()
			t := time.NewTicker(hold / 3)
			defer t.Stop()
			for {
				select {
				case <-stopKA:
					return
				case <-t.C:
					if err := s.conn.Send(netx.Frame{Type: uint8(MsgKeepalive)}); err != nil {
						return
					}
				}
			}
		}()
	}
	defer func() {
		close(stopKA)
		kaWG.Wait()
	}()

	for {
		if hold > 0 {
			if err := s.conn.SetDeadline(time.Now().Add(hold)); err != nil {
				return err
			}
		}
		f, err := s.conn.Recv()
		if err != nil {
			select {
			case <-s.closed:
				return ErrSessionClosed
			default:
			}
			return err
		}
		switch MsgType(f.Type) {
		case MsgKeepalive:
			// hold timer implicitly reset by the next SetDeadline
		case MsgUpdate:
			var u Update
			if err := u.UnmarshalBinary(f.Payload); err != nil {
				s.notify(Notification{Code: NotifyUpdateError})
				return err
			}
			s.hooks.Metrics.updateIn()
			if s.hooks.OnUpdate != nil {
				s.hooks.OnUpdate(u)
			}
		case MsgNotification:
			var n Notification
			if err := n.UnmarshalBinary(f.Payload); err != nil {
				return err
			}
			s.hooks.Metrics.notificationRecv()
			return fmt.Errorf("%w: code %d subcode %d", ErrNotifyRecv, n.Code, n.Subcode)
		default:
			s.notify(Notification{Code: NotifyMsgHeaderError})
			return fmt.Errorf("%w: unexpected %s", ErrFSM, MsgType(f.Type))
		}
	}
}

// SendUpdate transmits an UPDATE; the session must be Established. A
// session closed concurrently (Close, or pump teardown) yields
// ErrSessionClosed — never a panic, and never a raw transport error for
// the close the caller itself initiated.
func (s *Session) SendUpdate(u Update) error {
	if s.State() != StateEstablished {
		return fmt.Errorf("%w: state %s", ErrFSM, s.State())
	}
	select {
	case <-s.closed:
		return ErrSessionClosed
	default:
	}
	// Encode into a pooled buffer; SendPooled recycles it after the write
	// (FrameConn sends never retain the payload).
	body, err := u.AppendBinary(netx.GetBuf(256))
	if err != nil {
		netx.PutBuf(body)
		return err
	}
	if err := netx.SendPooled(s.conn, uint8(MsgUpdate), body); err != nil {
		// Close may have raced the write: report the session closure, not
		// the underlying "use of closed connection".
		select {
		case <-s.closed:
			return ErrSessionClosed
		default:
		}
		return err
	}
	s.hooks.Metrics.updateOut()
	return nil
}

// notify best-effort sends a NOTIFICATION before teardown.
func (s *Session) notify(n Notification) {
	if body, err := n.AppendBinary(netx.GetBuf(64)); err == nil {
		_ = netx.SendPooled(s.conn, uint8(MsgNotification), body)
	} else {
		netx.PutBuf(body)
	}
}

// Close ends the session with a best-effort CEASE notification. The
// notification is bounded by a short write deadline so Close can never
// hang on a peer that has stopped reading (it also unblocks any writer
// stuck mid-send on such a peer); the transport is then torn down.
func (s *Session) Close() {
	s.mu.Lock()
	select {
	case <-s.closed:
		s.mu.Unlock()
		return
	default:
		close(s.closed)
	}
	s.mu.Unlock()
	_ = s.conn.SetDeadline(time.Now().Add(200 * time.Millisecond))
	s.notify(Notification{Code: NotifyCease})
	_ = s.conn.Close()
}

func (s *Session) finish(err error) {
	s.hooks.Metrics.sessionClosed()
	s.setState(StateClosed)
	_ = s.conn.Close()
	s.mu.Lock()
	s.err = err
	s.mu.Unlock()
	if s.hooks.OnClose != nil {
		s.hooks.OnClose(err)
	}
}
