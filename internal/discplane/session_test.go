package discplane

import (
	"context"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
	"time"

	"pvr/internal/aspath"
	"pvr/internal/netx"
	"pvr/internal/obs"
)

// serve runs f's server as a session on one end of a pipe and returns the
// other end plus the channel Serve's result arrives on.
func (f *fixture) serve(t *testing.T, ctx context.Context) (*netx.Conn, <-chan error) {
	t.Helper()
	client, server := netx.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- f.srv.Serve(ctx, server)
		server.Close()
	}()
	t.Cleanup(func() { client.Close() })
	return client, done
}

// gated builds a query addressed to the fixture's prover, signed or not.
func (f *fixture) gated(t *testing.T, requester aspath.ASN, role Role, signed bool) *Query {
	t.Helper()
	q := &Query{Requester: requester, Prover: proverASN, Role: role, Epoch: 1, Prefix: f.pfx}
	if signed {
		if err := q.Sign(f.signers[requester]); err != nil {
			t.Fatal(err)
		}
	}
	return q
}

func TestSessionRule(t *testing.T) {
	f := newFixture(t)
	c, _ := f.serve(t, context.Background())

	// Nothing has bound the connection: an unsigned gated query is refused
	// exactly as an unauthenticated one always was.
	if _, err := Fetch(c, f.gated(t, promiseeASN, RolePromisee, false)); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("unsigned query on a fresh connection: %v, want ErrAccessDenied", err)
	}
	// Public material needs no principal, bound or not.
	if _, err := Fetch(c, f.gated(t, 0, RoleObserver, false)); err != nil {
		t.Fatalf("observer query: %v", err)
	}
	// The signed query binds; unsigned follow-ups by the same principal are
	// then granted, in any gated role α allows.
	if _, err := Fetch(c, f.gated(t, promiseeASN, RolePromisee, true)); err != nil {
		t.Fatalf("signed query: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := Fetch(c, f.gated(t, promiseeASN, RolePromisee, false)); err != nil {
			t.Fatalf("unsigned follow-up %d: %v", i, err)
		}
	}
	// Another principal cannot ride the binding, and trying leaves it whole.
	if _, err := Fetch(c, f.gated(t, providerASN, RoleProvider, false)); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("unsigned query naming another principal: %v, want ErrAccessDenied", err)
	}
	if _, err := Fetch(c, f.gated(t, promiseeASN, RolePromisee, false)); err != nil {
		t.Fatalf("binding did not survive a refused query: %v", err)
	}
	// α still applies to the bound principal: a promisee is no provider.
	if _, err := Fetch(c, f.gated(t, promiseeASN, RoleProvider, false)); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("bound promisee asking as provider: %v, want ErrAccessDenied", err)
	}
	// A signed query by someone else is verified as ever and rebinds.
	if _, err := Fetch(c, f.gated(t, providerASN, RoleProvider, true)); err != nil {
		t.Fatalf("signed query on a bound connection: %v", err)
	}
	if _, err := Fetch(c, f.gated(t, providerASN, RoleProvider, false)); err != nil {
		t.Fatalf("follow-up after rebinding: %v", err)
	}
	if _, err := Fetch(c, f.gated(t, promiseeASN, RolePromisee, false)); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("previous principal after rebinding: %v, want ErrAccessDenied", err)
	}
}

func TestUnaddressedQueryDoesNotBind(t *testing.T) {
	f := newFixture(t)
	c, _ := f.serve(t, context.Background())
	q := &Query{Requester: promiseeASN, Role: RolePromisee, Epoch: 1, Prefix: f.pfx} // Prover 0
	if err := q.Sign(f.signers[promiseeASN]); err != nil {
		t.Fatal(err)
	}
	if _, err := Fetch(c, q); err != nil {
		t.Fatalf("unaddressed signed query: %v", err)
	}
	if _, err := Fetch(c, f.gated(t, promiseeASN, RolePromisee, false)); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("follow-up after an unaddressed query: %v, want ErrAccessDenied", err)
	}
}

func TestReplayedFirstFrameCannotOpenSession(t *testing.T) {
	f := newFixture(t)
	c1, _ := f.serve(t, context.Background())
	first := f.gated(t, promiseeASN, RolePromisee, true)
	if _, err := Fetch(c1, first); err != nil {
		t.Fatal(err)
	}
	// The captured frame on a connection of the attacker's own: refused by
	// the nonce set, so nothing is bound, and the session is ended.
	c2, done := f.serve(t, context.Background())
	if _, err := Fetch(c2, first); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("replayed first frame: %v, want ErrAccessDenied", err)
	}
	if err := <-done; err == nil {
		t.Fatal("session survived a failed authentication")
	}
	if _, err := Fetch(c2, f.gated(t, promiseeASN, RolePromisee, false)); !errors.Is(err, ErrNoAnswer) {
		t.Fatalf("follow-up after a replay: %v, want ErrNoAnswer", err)
	}
}

func TestRespondRemembersNothing(t *testing.T) {
	f := newFixture(t)
	client, server := netx.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		for f.srv.Respond(server) == nil {
		}
	}()
	if _, err := Fetch(client, f.gated(t, promiseeASN, RolePromisee, true)); err != nil {
		t.Fatal(err)
	}
	if _, err := Fetch(client, f.gated(t, promiseeASN, RolePromisee, false)); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("unsigned query to the one-exchange form: %v, want ErrAccessDenied", err)
	}
}

func TestFollowUpSkipsNonceBookkeeping(t *testing.T) {
	f := newFixture(t)
	var stamps int
	srv, err := NewServer(Config{
		ASN: proverASN, Engine: f.eng, Registry: f.reg,
		IsPromisee: func(a aspath.ASN) bool { return a == promiseeASN },
		OnNonce:    func(uint64) { stamps++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	f.srv = srv
	c, _ := f.serve(t, context.Background())
	if _, err := Fetch(c, f.gated(t, promiseeASN, RolePromisee, true)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := Fetch(c, f.gated(t, promiseeASN, RolePromisee, false)); err != nil {
			t.Fatal(err)
		}
	}
	if stamps != 1 {
		t.Fatalf("OnNonce called %d times for one signed query and five follow-ups, want 1", stamps)
	}
}

func TestListenerGuard(t *testing.T) {
	f := newFixture(t)
	reg := obs.NewRegistry()
	srv, err := NewServer(Config{ASN: proverASN, Engine: f.eng, Registry: f.reg, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	f.srv = srv
	for _, tc := range []struct {
		reason string
		frame  netx.Frame
		deny   bool // a DenyBadQuery precedes the hang-up
	}{
		{"frame_type", netx.Frame{Type: FrameView, Payload: []byte{1}}, false},
		{"oversize", netx.Frame{Type: FrameDisclose, Payload: make([]byte, maxQueryPayload+1)}, true},
		{"oversize", netx.Frame{Type: FrameDiscloseAnon, Payload: make([]byte, maxAnonQueryPayload+1)}, true},
		{"undecodable", netx.Frame{Type: FrameDisclose, Payload: []byte{0, 1, 2}}, true},
		{"undecodable", netx.Frame{Type: FrameDiscloseAnon, Payload: []byte{0, 1, 2}}, true},
	} {
		name := `pvr_disc_rejected_total{reason="` + tc.reason + `"}`
		before := reg.Snapshot()[name]
		c, done := f.serve(t, context.Background())
		if err := c.Send(tc.frame); err != nil {
			t.Fatal(err)
		}
		if tc.deny {
			r, err := c.Recv()
			if err != nil || r.Type != FrameDeny {
				t.Fatalf("%s: answered with frame %#x (%v), want a denial", tc.reason, r.Type, err)
			}
			if d, err := DecodeDenial(r.Payload); err != nil || !errors.Is(d, ErrBadQuery) {
				t.Fatalf("%s: denial %v (%v), want ErrBadQuery", tc.reason, d, err)
			}
		}
		if err := <-done; err == nil {
			t.Fatalf("%s: the session went on", tc.reason)
		}
		if got := reg.Snapshot()[name] - before; got != 1 {
			t.Fatalf("%s counted %v times, want 1", name, got)
		}
	}
}

func TestServeEndsWithContext(t *testing.T) {
	f := newFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	c, done := f.serve(t, ctx)
	if _, err := Fetch(c, f.gated(t, promiseeASN, RolePromisee, true)); err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Serve returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after its context ended")
	}
}

// packFrames lays a frame sequence out as FuzzSession's input: type, 16-bit
// length, payload, repeated.
func packFrames(frames ...netx.Frame) []byte {
	var b []byte
	for _, fr := range frames {
		b = append(b, fr.Type)
		b = binary.BigEndian.AppendUint16(b, uint16(len(fr.Payload)))
		b = append(b, fr.Payload...)
	}
	return b
}

// FuzzSession fuzzes a whole connection — a sequence of frames answered by
// one Serve loop, whatever the listener guard makes of them. Nothing
// panics or hangs, and a gated VIEW only ever answers an authenticated
// query: one whose signature verifies, or an unsigned one behind a signed,
// addressed query of the same principal earlier on the connection.
func FuzzSession(f *testing.F) {
	fx := newFixture(f)
	frame := func(requester aspath.ASN, role Role, signed bool) netx.Frame {
		q := &Query{Requester: requester, Prover: proverASN, Role: role, Epoch: 1, Prefix: fx.pfx}
		if signed {
			if err := q.Sign(fx.signers[requester]); err != nil {
				f.Fatal(err)
			}
		}
		enc, err := q.Encode()
		if err != nil {
			f.Fatal(err)
		}
		return netx.Frame{Type: FrameDisclose, Payload: enc}
	}
	// An unsigned follow-up with nothing to follow; a session; and a mixed
	// sequence — another principal riding the binding, public material in
	// between, a rebinding, the displaced principal coming back.
	f.Add(packFrames(frame(promiseeASN, RolePromisee, false)))
	f.Add(packFrames(
		frame(promiseeASN, RolePromisee, true),
		frame(promiseeASN, RolePromisee, false),
		frame(promiseeASN, RolePromisee, false),
	))
	f.Add(packFrames(
		frame(promiseeASN, RolePromisee, true),
		frame(promiseeASN, RolePromisee, false),
		frame(providerASN, RoleProvider, false),
		frame(0, RoleObserver, false),
		frame(providerASN, RoleProvider, true),
		frame(providerASN, RoleProvider, false),
		frame(promiseeASN, RolePromisee, false),
	))
	f.Fuzz(func(t *testing.T, data []byte) {
		// A server per input: its nonce set must not remember the seeds'
		// signed queries from the input before.
		srv, err := NewServer(Config{
			ASN: proverASN, Engine: fx.eng, Registry: fx.reg,
			IsPromisee: func(a aspath.ASN) bool { return a == promiseeASN },
		})
		if err != nil {
			t.Fatal(err)
		}
		client, server := netx.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = srv.Serve(context.Background(), server)
			server.Close()
		}()
		var bound aspath.ASN
		for len(data) >= 3 {
			typ, n := data[0], min(int(binary.BigEndian.Uint16(data[1:])), len(data)-3)
			payload := data[3 : 3+n]
			data = data[3+n:]
			if client.Send(netx.Frame{Type: typ, Payload: payload}) != nil {
				break // the server ended the session on an earlier frame
			}
			r, err := client.Recv()
			if err != nil {
				break
			}
			if typ != FrameDisclose {
				continue
			}
			q, err := DecodeQuery(payload)
			if err != nil {
				if r.Type == FrameView {
					t.Fatalf("undecodable query answered with a view")
				}
				continue
			}
			authed := bound != 0 && bound == q.Requester
			if len(q.Sig) > 0 {
				if authed = q.Verify(fx.reg) == nil; authed && q.Prover == proverASN {
					bound = q.Requester
				}
			}
			if (q.Role == RoleProvider || q.Role == RolePromisee) && r.Type == FrameView && !authed {
				t.Fatalf("gated view granted to unauthenticated %s (connection bound to %s)", q.Requester, bound)
			}
		}
		client.Close()
		<-done
	})
}

// BenchmarkSessionExchange is one unsigned follow-up on a bound session,
// served from the response cache. It fails if either side of an exchange
// starts a goroutine — the only ones alive are the benchmark's and the one
// serve loop — or allocates much beyond what decoding the view takes
// (about 115 allocations at the time of writing).
func BenchmarkSessionExchange(b *testing.B) {
	f := newFixture(b)
	client, server := netx.Pipe()
	defer client.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = f.srv.Serve(context.Background(), server)
	}()
	q := &Query{Requester: promiseeASN, Prover: proverASN, Role: RolePromisee, Epoch: 1, Prefix: f.pfx}
	if err := q.Sign(f.signers[promiseeASN]); err != nil {
		b.Fatal(err)
	}
	if _, err := Fetch(client, q); err != nil {
		b.Fatal(err)
	}
	q.Sig = nil
	fetch := func() {
		if _, err := Fetch(client, q); err != nil {
			b.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(200, fetch); allocs > 140 {
		b.Fatalf("%.0f allocations per exchange", allocs)
	}
	before := runtime.NumGoroutine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fetch()
		if i&1023 == 0 {
			if n := runtime.NumGoroutine(); n > before {
				b.Fatalf("%d goroutines during an exchange, %d before the loop", n, before)
			}
		}
	}
	b.StopTimer()
	client.Close()
	<-done
}
