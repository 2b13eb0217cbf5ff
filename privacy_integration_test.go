package pvr_test

// Public-API-only integration test of the privacy plane: anonymous
// ring-signed provider queries and zero-knowledge auditor openings, end
// to end over the in-memory transport. Two providers share a ring; each
// fetches its own §3.3 bit without the prover learning which of them
// asked, and a third party verifies "the promise holds" against the
// sealed commitment with no bit opened.

import (
	"context"
	"errors"
	"net/netip"
	"testing"
	"time"

	"pvr"
)

func TestPrivacyPlaneAnonymousAndAuditorQueries(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	tr := pvr.NewMemTransport()
	reg := pvr.NewRegistry()
	rd := pvr.NewRingDirectory()
	pfx := pvr.MustParsePrefix("203.0.113.0/24")

	// A: the prover. It seals with ZK bindings and serves the query plane;
	// the shared ring directory is how it resolves ring members' keys.
	a, err := pvr.Open(ctx,
		pvr.WithASN(64500),
		pvr.WithTransport(tr),
		pvr.WithRegistry(reg),
		pvr.WithRingDirectory(rd),
		pvr.WithZKDisclosure(),
		pvr.WithOriginate(pfx),
		pvr.WithWindow(0),
		pvr.WithHoldTime(0),
		pvr.WithDiscloseListen("priv-a"),
		pvr.WithPromisees(64502),
		pvr.WithLogf(t.Logf),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	addr := a.DiscloseAddr()

	open := func(asn pvr.ASN, opts ...pvr.Option) *pvr.Participant {
		t.Helper()
		p, err := pvr.Open(ctx, append([]pvr.Option{
			pvr.WithASN(asn), pvr.WithTransport(tr), pvr.WithRegistry(reg),
			pvr.WithRingDirectory(rd), pvr.WithHoldTime(0), pvr.WithLogf(t.Logf),
		}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	rk1, err := pvr.GenerateRingKey(64501)
	if err != nil {
		t.Fatal(err)
	}
	rk2, err := pvr.GenerateRingKey(64504)
	if err != nil {
		t.Fatal(err)
	}
	p1 := open(64501, pvr.WithRingKey(rk1))
	defer p1.Close()
	p2 := open(64504, pvr.WithRingKey(rk2))
	defer p2.Close()
	third := open(64503)
	defer third.Close()

	// Both providers offer A input routes of different lengths, so their
	// anonymous queries open different bits.
	announce := func(p *pvr.Participant, hops ...pvr.ASN) pvr.Announcement {
		t.Helper()
		ann, err := p.Announce(a.ASN(), 1, pvr.Route{
			Prefix:  pfx,
			Path:    pvr.NewPath(append([]pvr.ASN{p.ASN()}, hops...)...),
			NextHop: netip.MustParseAddr("192.0.2.7"),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Submit(ctx, pvr.AnnounceEvent(p.ASN(), ann)); err != nil {
			t.Fatal(err)
		}
		return ann
	}
	ann1 := announce(p1, 65010, 65011)
	ann2 := announce(p2, 65012)
	if _, err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	// Anonymous provider queries: each ring member is granted and verifies
	// its own bit; the ring is all A can learn about who asked.
	ring := []pvr.ASN{p1.ASN(), p2.ASN()}
	d1, err := p1.RequestAnonymousDisclosure(ctx, addr, pfx, 1, ring, &ann1)
	if err != nil {
		t.Fatalf("p1 anonymous query: %v", err)
	}
	if d1.Role != pvr.RoleProvider || d1.Provider == nil {
		t.Fatalf("p1 anonymous disclosure malformed: %+v", d1)
	}
	d2, err := p2.RequestAnonymousDisclosure(ctx, addr, pfx, 1, ring, &ann2)
	if err != nil {
		t.Fatalf("p2 anonymous query: %v", err)
	}
	if d2.Provider.Position == d1.Provider.Position {
		t.Fatal("distinct route lengths opened the same position")
	}

	// Without a ring key, anonymous mode is a config error before any
	// bytes leave the host.
	if _, err := third.RequestAnonymousDisclosure(ctx, addr, pfx, 1, ring, &ann1); !errors.Is(err, pvr.ErrConfig) {
		t.Fatalf("anonymous query without WithRingKey: %v, want ErrConfig", err)
	}

	// An outsider in the ring — even with a registered ring key — is
	// rejected by the server: rings must be subsets of the declared
	// providers. (third never announced a route for pfx.)
	rk3, err := pvr.GenerateRingKey(third.ASN())
	if err != nil {
		t.Fatal(err)
	}
	rd.Register(third.ASN(), rk3.Public())
	if _, err := p1.RequestAnonymousDisclosure(ctx, addr, pfx, 1,
		[]pvr.ASN{p1.ASN(), third.ASN()}, &ann1); !errors.Is(err, pvr.ErrAccessDenied) {
		t.Fatalf("ring with an outsider: %v, want ErrAccessDenied", err)
	}

	// Zero-knowledge auditor opening: the third party (no entitlement at
	// all) verifies that A's sealed promise holds, with no bit opened.
	ad, err := third.RequestAuditProof(ctx, addr, pfx, 1)
	if err != nil {
		t.Fatalf("auditor query: %v", err)
	}
	if ad.Role != pvr.RoleAuditor || ad.Vector == nil || ad.Vector.Proof == nil {
		t.Fatalf("auditor disclosure malformed: %+v", ad)
	}
	if ad.Provider != nil || ad.Promisee != nil {
		t.Fatal("auditor disclosure carries opened material")
	}

	// A prover that does not seal with WithZKDisclosure has no vector to
	// open: the auditor query is a typed not-found.
	plain, err := pvr.Open(ctx,
		pvr.WithASN(64510), pvr.WithTransport(tr), pvr.WithRegistry(reg),
		pvr.WithOriginate(pfx), pvr.WithWindow(0), pvr.WithHoldTime(0),
		pvr.WithDiscloseListen("priv-plain"), pvr.WithLogf(t.Logf),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, err := third.RequestAuditProof(ctx, plain.DiscloseAddr(), pfx, 1); !errors.Is(err, pvr.ErrNotFound) {
		t.Fatalf("auditor query against a non-ZK prover: %v, want ErrNotFound", err)
	}
}

// A prover sealing with WithZKDisclosure binds a Pedersen-vector digest
// into every shard leaf. A BGP neighbour needs that digest to rebuild the
// leaf, so the UPDATE must carry it: every route of the ZK-sealed table is
// verified and none rejected, across the initial table and a re-seal.
func TestZKSealingProverVerifiesOverBGP(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	tr := pvr.NewMemTransport()
	reg := pvr.NewRegistry()
	pfxs := []pvr.Prefix{
		pvr.MustParsePrefix("203.0.113.0/24"),
		pvr.MustParsePrefix("198.51.100.0/24"),
		pvr.MustParsePrefix("192.0.2.0/24"),
	}
	a, err := pvr.Open(ctx,
		pvr.WithASN(64500), pvr.WithTransport(tr), pvr.WithRegistry(reg),
		pvr.WithZKDisclosure(), pvr.WithMaxLen(8), pvr.WithOriginate(pfxs...), pvr.WithShards(2),
		pvr.WithWindow(0), pvr.WithHoldTime(0), pvr.WithListen("zk-bgp-a"), pvr.WithPromisees(64502),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := pvr.Open(ctx,
		pvr.WithASN(64502), pvr.WithTransport(tr), pvr.WithRegistry(reg),
		pvr.WithPeers("zk-bgp-a"), pvr.WithHoldTime(0),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	waitFor(t, "the promisee to verify the ZK-sealed table", func() bool {
		st := b.Stats()
		return st.RoutesVerified+st.RoutesRejected >= uint64(len(pfxs))
	})

	// A provider's input dirties one prefix; the re-sealed route is
	// re-advertised under the new window's seal, digest and all.
	provider, err := pvr.Open(ctx, pvr.WithASN(64501), pvr.WithTransport(tr), pvr.WithRegistry(reg), pvr.WithHoldTime(0))
	if err != nil {
		t.Fatal(err)
	}
	defer provider.Close()
	ann, err := provider.Announce(a.ASN(), 1, pvr.Route{
		Prefix: pfxs[0], Path: pvr.NewPath(provider.ASN(), 65010, 65011), NextHop: netip.MustParseAddr("192.0.2.7"),
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
	waitFor(t, "the promisee to verify the re-sealed route", func() bool {
		st := b.Stats()
		return st.RoutesVerified+st.RoutesRejected >= uint64(len(pfxs))+1
	})
	if st := b.Stats(); st.RoutesRejected != 0 || st.RoutesVerified != uint64(len(pfxs))+1 {
		t.Fatalf("promisee verified %d and rejected %d routes of a ZK-sealing prover, want %d and 0",
			st.RoutesVerified, st.RoutesRejected, len(pfxs)+1)
	}
}
