package pvr_test

// Tests of disclosure sessions through the public API, watched from a
// Transport of the test's own: a participant's queries to one peer ride a
// small pool of kept connections, each authenticated by the first gated
// query on it; anonymous queries never do.

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pvr"
	"pvr/internal/discplane"
)

// dialCounter is a Transport decorator that counts dials per address and
// signed queries sent, and can keep a copy of the next frame sent.
type dialCounter struct {
	pvr.Transport
	mu      sync.Mutex
	dials   map[string]int
	signed  atomic.Int64
	capture atomic.Bool
	first   atomic.Pointer[pvr.Frame]
}

func newDialCounter(inner pvr.Transport) *dialCounter {
	return &dialCounter{Transport: inner, dials: make(map[string]int)}
}

func (d *dialCounter) Dial(ctx context.Context, addr string) (pvr.Conn, error) {
	c, err := d.Transport.Dial(ctx, addr)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.dials[addr]++
	d.mu.Unlock()
	return &capturingConn{Conn: c, d: d}, nil
}

func (d *dialCounter) count(addr string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dials[addr]
}

type capturingConn struct {
	pvr.Conn
	d *dialCounter
}

func (c *capturingConn) Send(f pvr.Frame) error {
	if f.Type == discplane.FrameDisclose {
		if q, err := discplane.DecodeQuery(f.Payload); err == nil && len(q.Sig) > 0 {
			c.d.signed.Add(1)
		}
	}
	if c.d.capture.CompareAndSwap(true, false) {
		c.d.first.Store(&pvr.Frame{Type: f.Type, Payload: append([]byte(nil), f.Payload...)})
	}
	return c.Conn.Send(f)
}

// sessionFleet is a prover with a promisee, a provider, an observer and an
// unentitled party, all dialing through one counting transport.
type sessionFleet struct {
	tr                                  *dialCounter
	reg                                 *pvr.Registry
	a, promisee, provider, observer, un *pvr.Participant
	pfxs                                []pvr.Prefix
	anns                                []pvr.Announcement
	addr                                string
}

func (f *sessionFleet) open(t testing.TB, ctx context.Context, asn pvr.ASN, opts ...pvr.Option) *pvr.Participant {
	t.Helper()
	p, err := pvr.Open(ctx, append([]pvr.Option{
		pvr.WithASN(asn), pvr.WithTransport(f.tr), pvr.WithRegistry(f.reg), pvr.WithHoldTime(0),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func newSessionFleet(t testing.TB, ctx context.Context, prefixes int) *sessionFleet {
	t.Helper()
	f := &sessionFleet{tr: newDialCounter(pvr.NewMemTransport()), reg: pvr.NewRegistry(), addr: "sess-a"}
	for i := 0; i < prefixes; i++ {
		f.pfxs = append(f.pfxs, pvr.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", i>>8, i&255)))
	}
	f.a = f.open(t, ctx, 64500,
		pvr.WithOriginate(f.pfxs...), pvr.WithShards(2), pvr.WithWindow(0),
		pvr.WithDiscloseListen(f.addr), pvr.WithPromisees(64502))
	f.provider = f.open(t, ctx, 64501)
	f.promisee = f.open(t, ctx, 64502)
	f.observer = f.open(t, ctx, 64503)
	f.un = f.open(t, ctx, 64504)
	for _, pfx := range f.pfxs {
		ann, err := f.provider.Announce(f.a.ASN(), 1, pvr.Route{
			Prefix: pfx, Path: pvr.NewPath(f.provider.ASN(), 65010, 65011), NextHop: netip.MustParseAddr("192.0.2.7"),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := f.a.Submit(ctx, pvr.AnnounceEvent(f.provider.ASN(), ann)); err != nil {
			t.Fatal(err)
		}
		f.anns = append(f.anns, ann)
	}
	if _, err := f.a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	return f
}

// ask issues query i in one of the four roles and checks the outcome.
func (f *sessionFleet) ask(ctx context.Context, i int) error {
	k := i % len(f.pfxs)
	pfx := f.pfxs[k]
	switch i % 4 {
	case 0:
		d, err := f.promisee.RequestDisclosure(ctx, f.addr, pfx, 1)
		if err == nil && (d.Promisee == nil || d.Prefix != pfx) {
			err = fmt.Errorf("promisee view of %s malformed: %+v", pfx, d)
		}
		return err
	case 1:
		d, err := f.provider.QueryDisclosure(ctx, f.addr, pvr.Query{
			Prefix: pfx, Epoch: 1, Role: pvr.RoleProvider, Prover: f.a.ASN(), Announcement: &f.anns[k],
		})
		if err == nil && (d.Provider == nil || d.Prefix != pfx) {
			err = fmt.Errorf("provider view of %s malformed: %+v", pfx, d)
		}
		return err
	case 2:
		d, err := f.observer.QueryDisclosure(ctx, f.addr, pvr.Query{Prefix: pfx, Epoch: 1, Role: pvr.RoleObserver, Prover: f.a.ASN()})
		if err == nil && (d.Sealed == nil || d.Promisee != nil || d.Provider != nil) {
			err = fmt.Errorf("observer view of %s carries gated material", pfx)
		}
		return err
	default:
		_, err := f.un.RequestDisclosure(ctx, f.addr, pfx, 1)
		if errors.Is(err, pvr.ErrAccessDenied) {
			return nil
		}
		return fmt.Errorf("unentitled query for %s: %v, want ErrAccessDenied", pfx, err)
	}
}

func TestSequentialQueriesDialOnce(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	f := newSessionFleet(t, ctx, 4)
	// 1 000 promisee queries, and as many in the other three roles: each
	// of the four askers dials the prover once.
	for i := 0; i < 4000; i++ {
		if err := f.ask(ctx, i); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if n := f.tr.count(f.addr); n != 4 {
		t.Fatalf("4 askers x 1000 sequential queries dialed %d times, want 4", n)
	}
	st := f.a.Stats()
	if st.DisclosuresServed != 3000 || st.DisclosuresDenied != 1000 {
		t.Fatalf("served %d denied %d, want 3000 and 1000", st.DisclosuresServed, st.DisclosuresDenied)
	}
	// What was signed: the provider's first query, which names the prover
	// and binds; the promisee's first two — RequestDisclosure cannot name
	// the prover, so the first is unaddressed and binds nothing, and the
	// second is addressed to the AS the first view proved the peer to be;
	// none of the observer's; and every one of the unentitled party's,
	// which is never shown a view and so never learns whom to address.
	if n := f.tr.signed.Load(); n != 1+2+1000 {
		t.Fatalf("%d signed queries, want 1003", n)
	}
}

// On a private trust-on-first-use registry the key a first view verifies
// under is one the peer itself supplied: it proves nothing about whom a
// signed query should be good for, so unaddressed queries stay unaddressed
// — each one signed, none binding. Naming the prover binds as for anyone.
func TestPrivateRegistryKeepsSigningUnaddressedQueries(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	tr := newDialCounter(pvr.NewMemTransport())
	reg := pvr.NewRegistry()
	signer, err := pvr.GenerateEd25519()
	if err != nil {
		t.Fatal(err)
	}
	reg.Register(64501, signer.Public())
	pfx := pvr.MustParsePrefix("203.0.113.0/24")
	a, err := pvr.Open(ctx, pvr.WithASN(64500), pvr.WithTransport(tr), pvr.WithRegistry(reg), pvr.WithOriginate(pfx),
		pvr.WithWindow(0), pvr.WithHoldTime(0), pvr.WithDiscloseListen("tofu-a"))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// A provider: its view carries nobody's signature but the prover's.
	b, err := pvr.Open(ctx, pvr.WithASN(64501), pvr.WithSigner(signer), pvr.WithTransport(tr), pvr.WithHoldTime(0))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	ann, err := b.Announce(a.ASN(), 1, pvr.Route{Prefix: pfx, Path: pvr.NewPath(b.ASN(), 65010), NextHop: netip.MustParseAddr("192.0.2.7")})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Submit(ctx, pvr.AnnounceEvent(b.ASN(), ann)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	q := pvr.Query{Prefix: pfx, Epoch: 1, Role: pvr.RoleProvider, Announcement: &ann}
	for i := 0; i < 5; i++ {
		d, err := b.QueryDisclosure(ctx, "tofu-a", q)
		if err != nil {
			t.Fatal(err)
		}
		if d.KeyPinned != (i == 0) {
			t.Fatalf("query %d: KeyPinned = %v", i, d.KeyPinned)
		}
	}
	if dials, signed := tr.count("tofu-a"), tr.signed.Load(); dials != 1 || signed != 5 {
		t.Fatalf("5 unaddressed queries: %d dials, %d signed; want 1 and 5", dials, signed)
	}
	q.Prover = a.ASN()
	for i := 0; i < 3; i++ {
		if _, err := b.QueryDisclosure(ctx, "tofu-a", q); err != nil {
			t.Fatal(err)
		}
	}
	if signed := tr.signed.Load(); signed != 6 {
		t.Fatalf("3 addressed queries after them: %d signed in all, want 6", signed)
	}
}

func TestConcurrentCallersShareThePool(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	f := newSessionFleet(t, ctx, 8)
	// Every caller checks that each answer is for the prefix and role it
	// asked: frames interleaved on a shared connection would cross them.
	callers := max(4, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				if err := f.ask(ctx, c+i*callers+i); err != nil {
					errs <- fmt.Errorf("caller %d query %d: %w", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// At most one connection per caller per asker was ever needed; the
	// 400 rounds reused them.
	if n := f.tr.count(f.addr); n > 4*callers+callers {
		t.Fatalf("%d callers dialed %d times over %d queries", callers, n, 400*callers)
	}
}

func TestServerRestartRedialsTransparently(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	tr := newDialCounter(pvr.NewMemTransport())
	reg := pvr.NewRegistry()
	pfx := pvr.MustParsePrefix("203.0.113.0/24")
	signer, err := pvr.GenerateEd25519()
	if err != nil {
		t.Fatal(err)
	}
	provider, err := pvr.Open(ctx, pvr.WithASN(64501), pvr.WithTransport(tr), pvr.WithRegistry(reg), pvr.WithHoldTime(0))
	if err != nil {
		t.Fatal(err)
	}
	defer provider.Close()
	// The prover keeps a durable store, so that the restarted one resumes
	// the sealed sequence instead of re-publishing window numbers the
	// promisee has already seen under other roots.
	dir := t.TempDir()
	bootA := func() *pvr.Participant {
		t.Helper()
		a, err := pvr.Open(ctx, pvr.WithASN(64500), pvr.WithSigner(signer), pvr.WithTransport(tr), pvr.WithRegistry(reg),
			pvr.WithStore(dir), pvr.WithWindow(0), pvr.WithHoldTime(0),
			pvr.WithDiscloseListen("restart-a"), pvr.WithPromisees(64502))
		if err != nil {
			t.Fatal(err)
		}
		ann, err := provider.Announce(a.ASN(), a.Stats().Epoch, pvr.Route{
			Prefix: pfx, Path: pvr.NewPath(provider.ASN(), 65010), NextHop: netip.MustParseAddr("192.0.2.7"),
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
		return a
	}
	a := bootA()
	b, err := pvr.Open(ctx, pvr.WithASN(64502), pvr.WithTransport(tr), pvr.WithRegistry(reg), pvr.WithHoldTime(0))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	epoch := a.Stats().Epoch
	for i := 0; i < 3; i++ {
		if _, err := b.RequestDisclosure(ctx, "restart-a", pfx, epoch); err != nil {
			t.Fatal(err)
		}
	}
	if n := tr.count("restart-a"); n != 1 {
		t.Fatalf("dialed %d times before the restart, want 1", n)
	}
	a.Close()
	a = bootA()
	defer a.Close()
	// The kept connection died with the old server. The caller sees a
	// verified view at the new server's window, not the dead connection.
	d, err := b.RequestDisclosure(ctx, "restart-a", pfx, epoch)
	if err != nil {
		t.Fatalf("first query after the restart: %v", err)
	}
	if d.Window != a.Stats().Window {
		t.Fatalf("view at window %d, restarted prover at %d", d.Window, a.Stats().Window)
	}
	if _, err := b.RequestDisclosure(ctx, "restart-a", pfx, epoch); err != nil {
		t.Fatal(err)
	}
	if n := tr.count("restart-a"); n != 2 {
		t.Fatalf("dialed %d times across one restart, want 2", n)
	}
}

func TestReplayedFirstFrameOpensNoSession(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	f := newSessionFleet(t, ctx, 1)
	f.tr.capture.Store(true)
	if _, err := f.promisee.RequestDisclosure(ctx, f.addr, f.pfxs[0], 1); err != nil {
		t.Fatal(err)
	}
	first := f.tr.first.Load()
	if first == nil {
		t.Fatal("no frame captured")
	}
	// The session's signed first frame, sent again by someone else on a
	// connection of their own: refused like any replay, and the server
	// hangs up rather than wait for follow-ups.
	c, err := f.tr.Transport.Dial(ctx, f.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(*first); err != nil {
		t.Fatal(err)
	}
	if r, err := c.Recv(); err != nil || r.Type != discplane.FrameDeny {
		t.Fatalf("replayed first frame answered with frame %#x (%v), want a denial", r.Type, err)
	}
	if _, err := c.Recv(); err == nil {
		t.Fatal("the server kept a connection open after a replayed frame")
	}
}

func TestAnonymousQueriesNeverTouchThePool(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	tr := newDialCounter(pvr.NewMemTransport())
	reg := pvr.NewRegistry()
	rd := pvr.NewRingDirectory()
	pfx := pvr.MustParsePrefix("203.0.113.0/24")
	a, err := pvr.Open(ctx, pvr.WithASN(64500), pvr.WithTransport(tr), pvr.WithRegistry(reg), pvr.WithRingDirectory(rd),
		pvr.WithZKDisclosure(), pvr.WithOriginate(pfx), pvr.WithWindow(0), pvr.WithHoldTime(0), pvr.WithDiscloseListen("anon-a"))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var (
		ps   []*pvr.Participant
		anns []pvr.Announcement
		ring []pvr.ASN
	)
	for i, asn := range []pvr.ASN{64501, 64504} {
		rk, err := pvr.GenerateRingKey(asn)
		if err != nil {
			t.Fatal(err)
		}
		p, err := pvr.Open(ctx, pvr.WithASN(asn), pvr.WithTransport(tr), pvr.WithRegistry(reg), pvr.WithRingDirectory(rd),
			pvr.WithRingKey(rk), pvr.WithHoldTime(0))
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		hops := append([]pvr.ASN{asn}, []pvr.ASN{65010, 65011}[:i+1]...)
		ann, err := p.Announce(a.ASN(), 1, pvr.Route{Prefix: pfx, Path: pvr.NewPath(hops...), NextHop: netip.MustParseAddr("192.0.2.7")})
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Submit(ctx, pvr.AnnounceEvent(asn, ann)); err != nil {
			t.Fatal(err)
		}
		ps, anns, ring = append(ps, p), append(anns, ann), append(ring, asn)
	}
	if _, err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	p := ps[0]
	attributed := func() {
		t.Helper()
		if _, err := p.QueryDisclosure(ctx, "anon-a", pvr.Query{Prefix: pfx, Epoch: 1, Role: pvr.RoleProvider, Prover: a.ASN(), Announcement: &anns[0]}); err != nil {
			t.Fatal(err)
		}
	}
	// An attributed session first, so the pool holds a bound connection an
	// anonymous query could (wrongly) ride.
	attributed()
	attributed()
	if n := tr.count("anon-a"); n != 1 {
		t.Fatalf("two attributed queries dialed %d times, want 1", n)
	}
	for i := 0; i < 5; i++ {
		if _, err := p.RequestAnonymousDisclosure(ctx, "anon-a", pfx, 1, ring, &anns[0]); err != nil {
			t.Fatalf("anonymous query %d: %v", i, err)
		}
	}
	if n := tr.count("anon-a"); n != 6 {
		t.Fatalf("five anonymous queries brought the dial count to %d, want 6: one connection each", n)
	}
	// They left nothing behind and took nothing: the attributed session is
	// still the one pooled connection.
	attributed()
	if n := tr.count("anon-a"); n != 6 {
		t.Fatalf("an attributed query after the anonymous ones dialed again (%d dials)", n)
	}
}

func TestQueryContextEndsAStalledExchange(t *testing.T) {
	tr := pvr.NewMemTransport()
	// A peer that accepts, reads, and never answers.
	lis, err := tr.Listen("stall", func(c pvr.Conn) {
		defer c.Close()
		for {
			if _, err := c.Recv(); err != nil {
				return
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	p, err := pvr.Open(context.Background(), pvr.WithASN(64502), pvr.WithTransport(tr), pvr.WithHoldTime(0))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err = p.RequestDisclosure(ctx, "stall", pvr.MustParsePrefix("203.0.113.0/24"), 1)
	if !errors.Is(err, pvr.ErrCanceled) {
		t.Fatalf("stalled query: %v, want ErrCanceled", err)
	}
	if el := time.Since(t0); el > 5*time.Second {
		t.Fatalf("stalled query took %s to give up", el)
	}
}

func TestCloseWithIdlePooledConnections(t *testing.T) {
	before := runtime.NumGoroutine()
	func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		f := newSessionFleet(t, ctx, 2)
		for i := 0; i < 16; i++ {
			if err := f.ask(ctx, i); err != nil {
				t.Fatal(err)
			}
		}
		// Clients first, with their connections idle in the pool and the
		// prover's serve loops blocked reading them; then the prover.
		for _, p := range []*pvr.Participant{f.promisee, f.provider, f.observer, f.un, f.a} {
			done := make(chan struct{})
			go func() { p.Close(); close(done) }()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("Close did not return with idle pooled connections")
			}
		}
	}()
	// Every goroutine the fleet started — serve loops included — is gone.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines before the fleet, %d after closing it:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// BenchmarkQueryDisclosurePooled is one promisee query over a kept
// MemTransport connection: an unsigned follow-up, served from the response
// cache, every verdict memoized. It fails if an exchange starts a
// goroutine on either side, or allocates like the dial, the two context
// watchers, the query signature and the per-query verification pipeline
// did: 405 allocations per query with them, some 200 without — what is
// left is decoding the view and hashing its openings.
func BenchmarkQueryDisclosurePooled(b *testing.B) {
	ctx := context.Background()
	f := newSessionFleet(b, ctx, 1)
	query := func() {
		if _, err := f.promisee.RequestDisclosure(ctx, f.addr, f.pfxs[0], 1); err != nil {
			b.Fatal(err)
		}
	}
	// The first query is unaddressed and the second binds; from the third
	// on they go unsigned.
	query()
	query()
	query()
	if n := f.tr.signed.Load(); n != 2 {
		b.Fatalf("%d signed queries while opening the session, want 2", n)
	}
	goroutines := runtime.NumGoroutine()
	if allocs := testing.AllocsPerRun(200, query); allocs > 260 {
		b.Fatalf("%.0f allocations per pooled query", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		query()
		if i&255 == 0 {
			if n := runtime.NumGoroutine(); n > goroutines {
				b.Fatalf("%d goroutines during a pooled query, %d before", n, goroutines)
			}
		}
	}
	b.StopTimer()
	if dials, signed := f.tr.count(f.addr), f.tr.signed.Load(); dials != 1 || signed != 2 {
		b.Fatalf("%d dials and %d signed queries, want 1 and 2", dials, signed)
	}
}
