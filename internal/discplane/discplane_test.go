package discplane

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net/netip"
	"slices"
	"sync"
	"testing"

	"pvr/internal/aspath"
	"pvr/internal/core"
	"pvr/internal/engine"
	"pvr/internal/netx"
	"pvr/internal/prefix"
	"pvr/internal/route"
	"pvr/internal/sigs"
)

const (
	proverASN   = aspath.ASN(64500)
	providerASN = aspath.ASN(64601)
	promiseeASN = aspath.ASN(64701)
	outsiderASN = aspath.ASN(64801)
)

// fixture builds a sealed single-prefix engine with one provider, plus a
// server whose α admits promiseeASN, and the provider's kept announcement.
type fixture struct {
	reg     *sigs.Registry
	signers map[aspath.ASN]sigs.Signer
	eng     *engine.ProverEngine
	srv     *Server
	pfx     prefix.Prefix
	ann     core.Announcement
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	f := &fixture{
		reg:     sigs.NewRegistry(),
		signers: make(map[aspath.ASN]sigs.Signer),
		pfx:     prefix.MustParse("203.0.113.0/24"),
	}
	for _, asn := range []aspath.ASN{proverASN, providerASN, promiseeASN, outsiderASN} {
		s, err := sigs.GenerateEd25519()
		if err != nil {
			t.Fatal(err)
		}
		f.signers[asn] = s
		f.reg.Register(asn, s.Public())
	}
	eng, err := engine.New(engine.Config{
		ASN: proverASN, Signer: f.signers[proverASN], Registry: f.reg, Shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.BeginEpoch(1)
	f.ann, err = core.NewAnnouncement(f.signers[providerASN], providerASN, proverASN, 1, route.Route{
		Prefix:  f.pfx,
		Path:    aspath.New(providerASN, 65001, 65002),
		NextHop: netip.MustParseAddr("192.0.2.1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AcceptAnnouncement(f.ann); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SealEpoch(); err != nil {
		t.Fatal(err)
	}
	f.eng = eng
	kb, err := f.signers[proverASN].Public().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	f.srv, err = NewServer(Config{
		ASN: proverASN, Engine: eng, Registry: f.reg,
		IsPromisee: func(a aspath.ASN) bool { return a == promiseeASN },
		Key:        kb,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// query runs one signed round trip against the fixture server over a pipe.
func (f *fixture) query(t *testing.T, requester aspath.ASN, role Role) (*View, error) {
	t.Helper()
	client, server := netx.Pipe()
	defer client.Close()
	defer server.Close()
	done := make(chan error, 1)
	go func() { done <- f.srv.Respond(server) }()
	q := &Query{Requester: requester, Role: role, Epoch: 1, Prefix: f.pfx}
	if requester != 0 {
		if err := q.Sign(f.signers[requester]); err != nil {
			t.Fatal(err)
		}
	}
	v, err := Fetch(client, q)
	<-done
	return v, err
}

func TestProviderQueryGrantsAndVerifies(t *testing.T) {
	f := newFixture(t)
	v, err := f.query(t, providerASN, RoleProvider)
	if err != nil {
		t.Fatalf("provider query: %v", err)
	}
	pv := &engine.ProviderView{Sealed: v.Sealed, Position: int(v.Position), Opening: *v.Opening}
	if err := engine.VerifyProviderView(f.reg, pv, f.ann); err != nil {
		t.Fatalf("fetched provider view does not verify: %v", err)
	}
	if v.Opening == nil || len(v.Openings) != 0 || v.Export != nil {
		t.Fatal("provider view carries material beyond the single opening")
	}
}

func TestPromiseeQueryGrantsAndVerifies(t *testing.T) {
	f := newFixture(t)
	v, err := f.query(t, promiseeASN, RolePromisee)
	if err != nil {
		t.Fatalf("promisee query: %v", err)
	}
	mv := &engine.PromiseeView{Sealed: v.Sealed, Openings: v.Openings, Winner: v.Winner, Export: *v.Export}
	if err := engine.VerifyPromiseeView(f.reg, mv); err != nil {
		t.Fatalf("fetched promisee view does not verify: %v", err)
	}
	if v.Export.To != promiseeASN {
		t.Fatalf("export addressed to %s, want the requesting promisee", v.Export.To)
	}
}

// TestSealedExportPromiseeQueryVerifies runs the full wire round trip
// against a sealed-export engine: the served promisee view carries an
// unsigned export statement plus the commitment opening, and the client
// verifies it through the seal alone. Observer views from the same
// engine must carry (and verify through) the extended leaf without
// leaking the opening.
func TestSealedExportPromiseeQueryVerifies(t *testing.T) {
	f := newFixture(t)
	eng, err := engine.New(engine.Config{
		ASN: proverASN, Signer: f.signers[proverASN], Registry: f.reg, Shards: 2,
		Promisee: promiseeASN,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.BeginEpoch(1)
	if _, err := eng.AcceptAnnouncement(f.ann); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SealEpoch(); err != nil {
		t.Fatal(err)
	}
	f.srv.cfg.Engine = eng

	v, err := f.query(t, promiseeASN, RolePromisee)
	if err != nil {
		t.Fatalf("promisee query: %v", err)
	}
	if !v.Sealed.HasExport {
		t.Fatal("sealed-export view lost the export commitment on the wire")
	}
	if len(v.Export.Sig) != 0 {
		t.Fatalf("sealed-export statement carries a per-prefix signature (%d bytes)", len(v.Export.Sig))
	}
	if v.ExportOpening == nil {
		t.Fatal("sealed-export promisee view lost the opening on the wire")
	}
	mv := &engine.PromiseeView{Sealed: v.Sealed, Openings: v.Openings, Winner: v.Winner,
		Export: *v.Export, ExportOpening: *v.ExportOpening}
	if err := engine.VerifyPromiseeView(f.reg, mv); err != nil {
		t.Fatalf("fetched sealed-export view does not verify: %v", err)
	}
	// A tampered opening must not pass the commitment check.
	bad := *mv
	bad.ExportOpening.Nonce[0] ^= 1
	if err := engine.VerifyPromiseeView(f.reg, &bad); err == nil {
		t.Fatal("tampered export opening accepted")
	}

	ov, err := f.query(t, outsiderASN, RoleObserver)
	if err != nil {
		t.Fatalf("observer query: %v", err)
	}
	if !ov.Sealed.HasExport {
		t.Fatal("observer view dropped the export commitment the leaf binds")
	}
	if err := ov.Sealed.Verify(f.reg); err != nil {
		t.Fatalf("observer sealed-export commitment does not verify: %v", err)
	}
	if ov.ExportOpening != nil {
		t.Fatal("observer view leaks the export opening")
	}
}

func TestObserverQueryGetsCommitmentOnly(t *testing.T) {
	f := newFixture(t)
	for _, requester := range []aspath.ASN{0, outsiderASN} {
		v, err := f.query(t, requester, RoleObserver)
		if err != nil {
			t.Fatalf("observer query (requester %d): %v", requester, err)
		}
		if err := v.Sealed.Verify(f.reg); err != nil {
			t.Fatalf("observer sealed commitment does not verify: %v", err)
		}
		if v.Opening != nil || v.Openings != nil || v.Winner != nil || v.Export != nil {
			t.Fatal("observer view leaks role-gated material")
		}
	}
}

func TestAlphaDenials(t *testing.T) {
	f := newFixture(t)
	cases := []struct {
		name      string
		requester aspath.ASN
		role      Role
		want      error
	}{
		{"outsider-as-provider", outsiderASN, RoleProvider, ErrAccessDenied},
		{"outsider-as-promisee", outsiderASN, RolePromisee, ErrAccessDenied},
		{"promisee-as-provider", promiseeASN, RoleProvider, ErrAccessDenied},
		{"provider-as-promisee", providerASN, RolePromisee, ErrAccessDenied},
		{"anonymous-provider", 0, RoleProvider, ErrAccessDenied},
	}
	for _, tc := range cases {
		if _, err := f.query(t, tc.requester, tc.role); !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if got := f.srv.Denied(); got != uint64(len(cases)) {
		t.Fatalf("server denied %d, want %d", got, len(cases))
	}
}

func TestForgedQuerySignatureDenied(t *testing.T) {
	f := newFixture(t)
	client, server := netx.Pipe()
	defer client.Close()
	defer server.Close()
	done := make(chan error, 1)
	go func() { done <- f.srv.Respond(server) }()
	// The outsider claims the provider's identity but can only sign with
	// its own key: α must refuse, not fall back to a lesser view.
	q := &Query{Requester: providerASN, Role: RoleProvider, Epoch: 1, Prefix: f.pfx}
	if err := q.Sign(f.signers[outsiderASN]); err != nil {
		t.Fatal(err)
	}
	if _, err := Fetch(client, q); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("impersonated provider query: %v, want ErrAccessDenied", err)
	}
	<-done
}

func TestReplayedQueryDenied(t *testing.T) {
	f := newFixture(t)
	client, server := netx.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		for f.srv.Respond(server) == nil {
		}
	}()
	q := &Query{Requester: promiseeASN, Prover: proverASN, Role: RolePromisee, Epoch: 1, Prefix: f.pfx}
	if err := q.Sign(f.signers[promiseeASN]); err != nil {
		t.Fatal(err)
	}
	if _, err := Fetch(client, q); err != nil {
		t.Fatalf("first query: %v", err)
	}
	// The byte-identical signed query replayed (same nonce): refused.
	if _, err := Fetch(client, q); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("replayed query: %v, want ErrAccessDenied", err)
	}
	// A fresh signing (fresh nonce) by the entitled principal still works.
	if err := q.Sign(f.signers[promiseeASN]); err != nil {
		t.Fatal(err)
	}
	if _, err := Fetch(client, q); err != nil {
		t.Fatalf("re-signed query: %v", err)
	}
}

// TestNonceFloorDeniesPreRecoveryReplay: the durable half of replay
// defense. A server restarted with NonceFloor set to its recovered
// stamp high-water mark refuses captured pre-crash queries even though
// its in-memory seen-set is empty, while freshly signed queries (whose
// stamps exceed the floor) pass, and OnNonce observes their stamps.
func TestNonceFloorDeniesPreRecoveryReplay(t *testing.T) {
	f := newFixture(t)

	// A query signed "before the crash".
	captured := &Query{Requester: promiseeASN, Prover: proverASN, Role: RolePromisee, Epoch: 1, Prefix: f.pfx}
	if err := captured.Sign(f.signers[promiseeASN]); err != nil {
		t.Fatal(err)
	}
	floor := NonceStamp(captured.Nonce)
	if floor == 0 {
		t.Fatal("signed query carries no nonce stamp")
	}

	// The "restarted" server: fresh seen-set, recovered floor.
	var stamps []uint64
	var mu sync.Mutex
	srv, err := NewServer(Config{
		ASN: proverASN, Engine: f.eng, Registry: f.reg,
		IsPromisee: func(a aspath.ASN) bool { return a == promiseeASN },
		Logf:       t.Logf,
		NonceFloor: floor,
		OnNonce: func(s uint64) {
			mu.Lock()
			stamps = append(stamps, s)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	roundTrip := func(q *Query) error {
		client, server := netx.Pipe()
		defer client.Close()
		defer server.Close()
		done := make(chan error, 1)
		go func() { done <- srv.Respond(server) }()
		_, err := Fetch(client, q)
		<-done
		return err
	}
	if err := roundTrip(captured); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("pre-recovery query replayed into a fresh seen-set: %v, want ErrAccessDenied", err)
	}
	fresh := &Query{Requester: promiseeASN, Prover: proverASN, Role: RolePromisee, Epoch: 1, Prefix: f.pfx}
	if err := fresh.Sign(f.signers[promiseeASN]); err != nil {
		t.Fatal(err)
	}
	if NonceStamp(fresh.Nonce) <= floor {
		t.Fatalf("stamp not monotonic: %d then %d", floor, NonceStamp(fresh.Nonce))
	}
	if err := roundTrip(fresh); err != nil {
		t.Fatalf("post-recovery query denied: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(stamps) != 1 || stamps[0] != NonceStamp(fresh.Nonce) {
		t.Fatalf("OnNonce observed %v, want exactly the accepted stamp %d", stamps, NonceStamp(fresh.Nonce))
	}
}

func TestQueryAddressedToAnotherProverDenied(t *testing.T) {
	f := newFixture(t)
	client, server := netx.Pipe()
	defer client.Close()
	defer server.Close()
	done := make(chan error, 1)
	go func() { done <- f.srv.Respond(server) }()
	// A gated query captured from a session with a different prover must
	// not be satisfiable here: the addressed prover is signed.
	q := &Query{Requester: promiseeASN, Prover: proverASN + 1, Role: RolePromisee, Epoch: 1, Prefix: f.pfx}
	if err := q.Sign(f.signers[promiseeASN]); err != nil {
		t.Fatal(err)
	}
	if _, err := Fetch(client, q); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("misaddressed query: %v, want ErrAccessDenied", err)
	}
	<-done
}

func TestUnknownPrefixAndEpochDenied(t *testing.T) {
	f := newFixture(t)
	client, server := netx.Pipe()
	defer client.Close()
	defer server.Close()
	go func() {
		for f.srv.Respond(server) == nil {
		}
	}()
	q := &Query{Requester: 0, Role: RoleObserver, Epoch: 1, Prefix: prefix.MustParse("198.51.100.0/24")}
	if _, err := Fetch(client, q); !errors.Is(err, ErrNotServed) {
		t.Fatalf("unknown prefix: %v, want ErrNotServed", err)
	}
	q = &Query{Requester: 0, Role: RoleObserver, Epoch: 9, Prefix: f.pfx}
	if _, err := Fetch(client, q); !errors.Is(err, ErrNotServed) {
		t.Fatalf("unknown epoch: %v, want ErrNotServed", err)
	}
}

func TestResponseCacheServesRepeatQueries(t *testing.T) {
	f := newFixture(t)
	var first []byte
	for i := 0; i < 3; i++ {
		v, err := f.query(t, promiseeASN, RolePromisee)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := v.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = enc
		} else if !bytes.Equal(first, enc) {
			t.Fatal("repeated query for one window returned different bytes")
		}
	}
	if got := f.srv.Served(); got != 3 {
		t.Fatalf("served %d, want 3", got)
	}
}

func TestQueryViewDenialRoundTrips(t *testing.T) {
	f := newFixture(t)
	q := &Query{Requester: providerASN, Role: RoleProvider, Epoch: 7, Prefix: f.pfx}
	if err := q.Sign(f.signers[providerASN]); err != nil {
		t.Fatal(err)
	}
	enc, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeQuery(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Requester != q.Requester || got.Role != q.Role || got.Epoch != q.Epoch ||
		got.Prefix != q.Prefix || got.Nonce != q.Nonce || !bytes.Equal(got.Sig, q.Sig) {
		t.Fatalf("query round trip mutated fields: %+v != %+v", got, q)
	}
	if err := got.Verify(f.reg); err != nil {
		t.Fatalf("round-tripped query signature: %v", err)
	}

	d := &Denial{Code: DenyAccess, Detail: "no"}
	gd, err := DecodeDenial(d.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if gd.Code != d.Code || gd.Detail != d.Detail {
		t.Fatalf("denial round trip mutated: %+v", gd)
	}

	// Views for every role round-trip through their encodings.
	for _, tc := range []struct {
		requester aspath.ASN
		role      Role
	}{{providerASN, RoleProvider}, {promiseeASN, RolePromisee}, {0, RoleObserver}} {
		v, err := f.query(t, tc.requester, tc.role)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := v.Encode()
		if err != nil {
			t.Fatal(err)
		}
		rt, err := DecodeView(enc)
		if err != nil {
			t.Fatalf("%s view re-decode: %v", tc.role, err)
		}
		enc2, err := rt.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("%s view encoding not stable across round trip", tc.role)
		}
	}
}

func TestDecodeRejectsTruncationsWithoutPanic(t *testing.T) {
	f := newFixture(t)
	v, err := f.query(t, promiseeASN, RolePromisee)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := v.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(enc); i++ {
		// A truncation that lands exactly on a trailing-extension boundary
		// is indistinguishable from a valid old-format frame — that is the
		// wire back-compat contract. Such a prefix may decode, but only if
		// it is itself a canonical encoding (round-trips byte-identically);
		// any mid-field truncation must be rejected.
		dv, err := DecodeView(enc[:i])
		if err != nil {
			continue
		}
		re, rerr := dv.Encode()
		if rerr != nil || !bytes.Equal(re, enc[:i]) {
			t.Fatalf("view truncation to %d bytes decoded non-canonically", i)
		}
	}
	if _, err := DecodeView(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("view trailing garbage accepted")
	}
	q := &Query{Requester: providerASN, Role: RoleProvider, Epoch: 1, Prefix: f.pfx}
	if err := q.Sign(f.signers[providerASN]); err != nil {
		t.Fatal(err)
	}
	qe, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(qe); i++ {
		dq, err := DecodeQuery(qe[:i])
		if err != nil {
			continue
		}
		re, rerr := dq.Encode()
		if rerr != nil || !bytes.Equal(re, qe[:i]) {
			t.Fatalf("query truncation to %d bytes decoded non-canonically", i)
		}
	}
}

// TestNonceSetGenerations: a nonce stays refused while fewer than
// nonceGeneration others have arrived since, and is forgotten after two
// generations' worth.
func TestNonceSetGenerations(t *testing.T) {
	var s nonceSet
	nonce := func(i int) (n [NonceSize]byte) {
		binary.BigEndian.PutUint64(n[:8], uint64(i))
		binary.BigEndian.PutUint64(n[8:], uint64(i)*0x9E3779B97F4A7C15)
		return n
	}
	for i := 0; i < 3*nonceGeneration; i++ {
		if s.seen(nonce(i)) {
			t.Fatalf("fresh nonce %d reported as seen", i)
		}
		if !s.seen(nonce(i)) {
			t.Fatalf("nonce %d not remembered", i)
		}
		if back := i - nonceGeneration + 1; back >= 0 && !s.seen(nonce(back)) {
			t.Fatalf("nonce %d forgotten within one generation", back)
		}
	}
	if s.seen(nonce(0)) {
		t.Fatal("a nonce three generations old is still remembered")
	}
	if len(s.cur)+len(s.prev) > 2*nonceGeneration || !slices.IsSortedFunc(s.prev, nonceKey.compare) {
		t.Fatalf("the set holds %d entries, more than two generations", len(s.cur)+len(s.prev))
	}
}
