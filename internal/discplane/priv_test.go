package discplane

import (
	"bytes"
	"errors"
	"net/netip"
	"testing"

	"pvr/internal/aspath"
	"pvr/internal/core"
	"pvr/internal/engine"
	"pvr/internal/netx"
	"pvr/internal/obs"
	"pvr/internal/prefix"
	"pvr/internal/privplane"
	"pvr/internal/route"
	"pvr/internal/sigs"
)

// privFixture is a sealed ZKBind engine with three providers (each with a
// ring key), a privacy plane, and a server wired to it.
type privFixture struct {
	reg     *sigs.Registry
	signers map[aspath.ASN]sigs.Signer
	eng     *engine.ProverEngine
	plane   *privplane.Plane
	srv     *Server
	pfx     prefix.Prefix
	ring    []aspath.ASN
	ringKey map[aspath.ASN]*privplane.RingKey
	anns    map[aspath.ASN]core.Announcement
	lengths map[aspath.ASN]int
}

func newPrivFixture(t testing.TB) *privFixture {
	t.Helper()
	f := &privFixture{
		reg:     sigs.NewRegistry(),
		signers: make(map[aspath.ASN]sigs.Signer),
		pfx:     prefix.MustParse("203.0.113.0/24"),
		ringKey: make(map[aspath.ASN]*privplane.RingKey),
		anns:    make(map[aspath.ASN]core.Announcement),
		lengths: make(map[aspath.ASN]int),
	}
	dir := privplane.NewDirectory()
	providers := []aspath.ASN{64601, 64602, 64603}
	for _, asn := range append([]aspath.ASN{proverASN, promiseeASN, outsiderASN}, providers...) {
		s, err := sigs.GenerateEd25519()
		if err != nil {
			t.Fatal(err)
		}
		f.signers[asn] = s
		f.reg.Register(asn, s.Public())
	}
	for _, asn := range providers {
		rk, err := privplane.GenerateRingKey(asn)
		if err != nil {
			t.Fatal(err)
		}
		f.ringKey[asn] = rk
		dir.Register(asn, rk.Public())
	}
	eng, err := engine.New(engine.Config{
		ASN: proverASN, Signer: f.signers[proverASN], Registry: f.reg,
		Shards: 2, MaxLen: 8, Promisee: promiseeASN, ZKBind: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.BeginEpoch(1)
	for i, asn := range providers {
		length := 2 + i // distinct declared lengths 2, 3, 4
		path := make([]aspath.ASN, length)
		path[0] = asn
		for l := 1; l < length; l++ {
			path[l] = aspath.ASN(65000 + l)
		}
		a, err := core.NewAnnouncement(f.signers[asn], asn, proverASN, 1, route.Route{
			Prefix: f.pfx, Path: aspath.New(path...), NextHop: netip.MustParseAddr("192.0.2.1"),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.AcceptAnnouncement(a, obs.TraceContext{}); err != nil {
			t.Fatal(err)
		}
		f.anns[asn] = a
		f.lengths[asn] = length
	}
	if _, err := eng.SealEpoch(); err != nil {
		t.Fatal(err)
	}
	f.eng = eng
	f.ring, err = privplane.CanonicalRing(providers)
	if err != nil {
		t.Fatal(err)
	}
	f.plane, err = privplane.New(privplane.Config{Engine: eng, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	f.srv, err = NewServer(Config{
		ASN: proverASN, Engine: eng, Registry: f.reg,
		IsPromisee: func(a aspath.ASN) bool { return a == promiseeASN },
		Priv:       f.plane,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// fetchAnon runs one ring-signed round trip for the given signer.
func (f *privFixture) fetchAnon(t *testing.T, signer aspath.ASN, position int) (*View, error) {
	t.Helper()
	q := &AnonQuery{
		Prover: proverASN, Epoch: 1, Prefix: f.pfx,
		Position: uint32(position), Ring: f.ring,
	}
	if err := q.Sign(f.plane, f.ringKey[signer]); err != nil {
		t.Fatal(err)
	}
	return f.fetchAnonRaw(t, q)
}

func (f *privFixture) fetchAnonRaw(t *testing.T, q *AnonQuery) (*View, error) {
	t.Helper()
	client, server := netx.Pipe()
	defer client.Close()
	defer server.Close()
	done := make(chan error, 1)
	go func() { done <- f.srv.Respond(server) }()
	v, err := FetchAnon(client, q)
	<-done
	return v, err
}

func (f *privFixture) fetchSigned(t *testing.T, requester aspath.ASN, role Role) (*View, error) {
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

// TestAnonProviderQueryGrantsAndVerifies: every ring member can pull its
// own bit anonymously, and the fetched view passes the same §3.3 check a
// named provider runs — against nothing but its own announcement.
func TestAnonProviderQueryGrantsAndVerifies(t *testing.T) {
	f := newPrivFixture(t)
	for _, asn := range f.ring {
		v, err := f.fetchAnon(t, asn, f.lengths[asn])
		if err != nil {
			t.Fatalf("member %s: %v", asn, err)
		}
		pv := &engine.ProviderView{Sealed: v.Sealed, Position: int(v.Position), Opening: *v.Opening}
		ann := f.anns[asn]
		if err := engine.VerifyProviderView(f.reg, pv, ann); err != nil {
			t.Fatalf("member %s: anonymous view does not verify: %v", asn, err)
		}
		if len(v.Openings) != 0 || v.Export != nil || v.ZKProof != nil {
			t.Fatalf("member %s: anonymous provider view leaks extra material", asn)
		}
	}
}

// TestAnonQueryRejections covers the refusal surface of the anonymous
// path: forged signatures, outsider rings, undeclared positions, replays,
// and servers without a privacy plane.
func TestAnonQueryRejections(t *testing.T) {
	f := newPrivFixture(t)
	signer := f.ring[0]

	// Tampered signature bytes.
	q := &AnonQuery{Prover: proverASN, Epoch: 1, Prefix: f.pfx, Position: uint32(f.lengths[signer]), Ring: f.ring}
	if err := q.Sign(f.plane, f.ringKey[signer]); err != nil {
		t.Fatal(err)
	}
	q.Sig[0] ^= 1
	if _, err := f.fetchAnonRaw(t, q); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("tampered ring signature: %v", err)
	}

	// Position tampered after signing: the signature covers it.
	q2 := &AnonQuery{Prover: proverASN, Epoch: 1, Prefix: f.pfx, Position: uint32(f.lengths[signer]), Ring: f.ring}
	if err := q2.Sign(f.plane, f.ringKey[signer]); err != nil {
		t.Fatal(err)
	}
	q2.Position = uint32(f.lengths[f.ring[1]])
	if _, err := f.fetchAnonRaw(t, q2); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("re-targeted position: %v", err)
	}

	// Undeclared position: signed honestly, but nobody announced length 7.
	q3 := &AnonQuery{Prover: proverASN, Epoch: 1, Prefix: f.pfx, Position: 7, Ring: f.ring}
	if err := q3.Sign(f.plane, f.ringKey[signer]); err != nil {
		t.Fatal(err)
	}
	if _, err := f.fetchAnonRaw(t, q3); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("undeclared position: %v", err)
	}

	// Replay: the same signed query a second time.
	q4 := &AnonQuery{Prover: proverASN, Epoch: 1, Prefix: f.pfx, Position: uint32(f.lengths[signer]), Ring: f.ring}
	if err := q4.Sign(f.plane, f.ringKey[signer]); err != nil {
		t.Fatal(err)
	}
	if _, err := f.fetchAnonRaw(t, q4); err != nil {
		t.Fatalf("first use: %v", err)
	}
	if _, err := f.fetchAnonRaw(t, q4); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("replayed anonymous query: %v", err)
	}

	// An outsider with a registered ring key but no announced route: the
	// plane refuses the ring before ever checking the signature.
	outKey, err := privplane.GenerateRingKey(outsiderASN)
	if err != nil {
		t.Fatal(err)
	}
	f.plane.Dir().Register(outsiderASN, outKey.Public())
	badRing, err := privplane.CanonicalRing(append([]aspath.ASN{outsiderASN}, f.ring[:1]...))
	if err != nil {
		t.Fatal(err)
	}
	q5 := &AnonQuery{Prover: proverASN, Epoch: 1, Prefix: f.pfx, Position: uint32(f.lengths[f.ring[0]]), Ring: badRing}
	if err := q5.Sign(f.plane, outKey); err != nil {
		t.Fatal(err)
	}
	if _, err := f.fetchAnonRaw(t, q5); !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("outsider ring: %v", err)
	}

	// A server with no privacy plane denies anonymous queries outright.
	bare, err := NewServer(Config{ASN: proverASN, Engine: f.eng, Registry: f.reg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	q6 := &AnonQuery{Prover: proverASN, Epoch: 1, Prefix: f.pfx, Position: uint32(f.lengths[signer]), Ring: f.ring}
	if err := q6.Sign(f.plane, f.ringKey[signer]); err != nil {
		t.Fatal(err)
	}
	client, server := netx.Pipe()
	defer client.Close()
	defer server.Close()
	done := make(chan error, 1)
	go func() { done <- bare.Respond(server) }()
	_, err = FetchAnon(client, q6)
	<-done
	if !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("plane-less server: %v", err)
	}
}

// TestAnonymityServerLearnsOnlyRing checks the server-side observer
// property E17 builds on: the response to an anonymous query is a pure
// function of (prefix, epoch, window, position) — byte-identical across
// ring members with the same route length — and the anonymous path never
// touches a requester identity.
func TestAnonymityServerLearnsOnlyRing(t *testing.T) {
	f := newPrivFixture(t)
	// Two different signers asking for the same position produce
	// byte-identical VIEW payloads (the second is even a cache hit), so
	// nothing in the response can depend on who signed.
	pos := f.lengths[f.ring[1]]
	q1 := &AnonQuery{Prover: proverASN, Epoch: 1, Prefix: f.pfx, Position: uint32(pos), Ring: f.ring}
	if err := q1.Sign(f.plane, f.ringKey[f.ring[1]]); err != nil {
		t.Fatal(err)
	}
	q2 := &AnonQuery{Prover: proverASN, Epoch: 1, Prefix: f.pfx, Position: uint32(pos), Ring: f.ring}
	if err := q2.Sign(f.plane, f.ringKey[f.ring[2]]); err != nil {
		t.Fatal(err)
	}
	p1, d1 := f.srv.answerAnon(q1)
	if d1 != nil {
		t.Fatal(d1)
	}
	p2, d2 := f.srv.answerAnon(q2)
	if d2 != nil {
		t.Fatal(d2)
	}
	if !bytes.Equal(p1, p2) {
		t.Fatal("anonymous responses differ across signers: the view leaks signer identity")
	}
	// And the two signed queries themselves differ only in nonce and
	// signature — same size, so traffic analysis of lengths learns nothing.
	e1, err := q1.Encode()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := q2.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(e1) != len(e2) {
		t.Fatal("anonymous query size depends on the signer")
	}
}

// TestAuditorQueryGrantsZeroKnowledge: an ANONYMOUS third party gets the
// sealed commitment plus the Pedersen vector and monotonicity proof, the
// proof verifies against the gossiped seal, and no opening of any kind
// rides along.
func TestAuditorQueryGrantsZeroKnowledge(t *testing.T) {
	f := newPrivFixture(t)
	v, err := f.fetchSigned(t, 0, RoleAuditor)
	if err != nil {
		t.Fatalf("auditor query: %v", err)
	}
	if err := v.Sealed.Verify(f.reg); err != nil {
		t.Fatalf("sealed commitment: %v", err)
	}
	vv := &privplane.VectorView{Commitments: v.ZKCommitments, Proof: v.ZKProof}
	if err := f.plane.VerifyAuditorProof(v.Sealed, vv); err != nil {
		t.Fatalf("auditor proof: %v", err)
	}
	if v.Opening != nil || len(v.Openings) != 0 || v.Export != nil || v.Winner != nil {
		t.Fatal("auditor view carries openings")
	}
	// Server without a privacy plane: auditor role denied.
	bare, err := NewServer(Config{ASN: proverASN, Engine: f.eng, Registry: f.reg, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	client, server := netx.Pipe()
	defer client.Close()
	defer server.Close()
	done := make(chan error, 1)
	go func() { done <- bare.Respond(server) }()
	_, err = Fetch(client, &Query{Role: RoleAuditor, Epoch: 1, Prefix: f.pfx})
	<-done
	if !errors.Is(err, ErrAccessDenied) {
		t.Fatalf("plane-less auditor query: %v", err)
	}
}

// TestDataMinimizationContract is the codec-level α contract: for every
// role, encoding a view with EVERY field populated produces exactly the
// bytes of a view holding only the entitled fields, and the decoded frame
// carries an entitled field if and only if FieldsFor grants it. A server
// bug that populates an unentitled field cannot leak it.
func TestDataMinimizationContract(t *testing.T) {
	f := newPrivFixture(t)
	// Assemble the maximal material: every field a view can carry.
	pv, err := f.eng.DiscloseToProvider(f.pfx, 64601)
	if err != nil {
		t.Fatal(err)
	}
	mv, err := f.eng.DiscloseToPromisee(f.pfx, promiseeASN)
	if err != nil {
		t.Fatal(err)
	}
	vv, sc, err := f.plane.VectorView(f.pfx)
	if err != nil {
		t.Fatal(err)
	}
	if !sc.HasExport || !sc.HasZK {
		t.Fatal("fixture seal misses export or ZK material; the contract would be vacuous")
	}
	if mv.Winner == nil {
		t.Fatal("fixture promisee view has no winner; the contract would be vacuous")
	}
	key := []byte("prover-key-bytes")
	full := func(role Role) *View {
		return &View{
			Role: role, Sealed: sc, Key: key,
			Position: uint32(pv.Position), Opening: &pv.Opening,
			Openings: mv.Openings, Winner: mv.Winner,
			Export: &mv.Export, ExportOpening: &mv.ExportOpening,
			ZKCommitments: vv.Commitments, ZKProof: vv.Proof,
		}
	}
	minimal := map[Role]*View{
		RoleObserver: {Role: RoleObserver, Sealed: sc, Key: key},
		RoleProvider: {Role: RoleProvider, Sealed: sc, Key: key,
			Position: uint32(pv.Position), Opening: &pv.Opening},
		RolePromisee: {Role: RolePromisee, Sealed: sc, Key: key,
			Openings: mv.Openings, Winner: mv.Winner,
			Export: &mv.Export, ExportOpening: &mv.ExportOpening},
		RoleAuditor: {Role: RoleAuditor, Sealed: sc, Key: key,
			ZKCommitments: vv.Commitments, ZKProof: vv.Proof},
	}
	fields := []struct {
		name    string
		field   Field
		present func(v *View) bool
	}{
		{"sealed", FieldSealed, func(v *View) bool { return v.Sealed != nil }},
		{"key", FieldKey, func(v *View) bool { return len(v.Key) > 0 }},
		{"export-commitment", FieldExportC, func(v *View) bool { return v.Sealed.HasExport }},
		{"zk-digest", FieldZKDigest, func(v *View) bool { return v.Sealed.HasZK }},
		{"position", FieldPosition, func(v *View) bool { return v.Opening != nil }},
		{"opening", FieldOpening, func(v *View) bool { return v.Opening != nil }},
		{"openings", FieldOpenings, func(v *View) bool { return len(v.Openings) > 0 }},
		{"winner", FieldWinner, func(v *View) bool { return v.Winner != nil }},
		{"export", FieldExport, func(v *View) bool { return v.Export != nil }},
		{"export-opening", FieldExportOpening, func(v *View) bool { return v.ExportOpening != nil }},
		{"zk-vector", FieldZKVector, func(v *View) bool { return v.ZKProof != nil && len(v.ZKCommitments) > 0 }},
	}
	for _, role := range []Role{RoleObserver, RoleProvider, RolePromisee, RoleAuditor} {
		overEnc, err := full(role).Encode()
		if err != nil {
			t.Fatalf("%s: encode full: %v", role, err)
		}
		minEnc, err := minimal[role].Encode()
		if err != nil {
			t.Fatalf("%s: encode minimal: %v", role, err)
		}
		if !bytes.Equal(overEnc, minEnc) {
			t.Errorf("%s: over-populated view encodes %d bytes, entitled-only view %d — the codec leaked",
				role, len(overEnc), len(minEnc))
		}
		dec, err := DecodeView(overEnc)
		if err != nil {
			t.Fatalf("%s: decode: %v", role, err)
		}
		entitled := FieldsFor(role)
		for _, fd := range fields {
			got := fd.present(dec)
			want := entitled.Has(fd.field)
			if got != want {
				t.Errorf("%s: field %s present=%v, entitled=%v", role, fd.name, got, want)
			}
		}
	}
}
