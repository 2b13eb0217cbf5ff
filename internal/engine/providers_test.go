package engine

import (
	"net/netip"
	"testing"

	"pvr/internal/aspath"
	"pvr/internal/core"
	"pvr/internal/obs"
	"pvr/internal/prefix"
	"pvr/internal/route"
	"pvr/internal/sigs"
)

// TestProviders pins the α source of truth for provider-role disclosure
// queries: exactly the ASNs that announced this epoch, ascending, served
// from live shard state before and after the seal.
func TestProviders(t *testing.T) {
	reg := sigs.NewRegistry()
	signers := map[aspath.ASN]sigs.Signer{}
	for _, asn := range []aspath.ASN{100, 201, 202, 203} {
		s, err := sigs.GenerateEd25519()
		if err != nil {
			t.Fatal(err)
		}
		signers[asn] = s
		reg.Register(asn, s.Public())
	}
	e, err := New(Config{ASN: 100, Signer: signers[100], Registry: reg, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	e.BeginEpoch(1)
	pfx := prefix.MustParse("203.0.113.0/24")
	for i, prov := range []aspath.ASN{203, 201} { // out of order on purpose
		a, err := core.NewAnnouncement(signers[prov], prov, 100, 1, route.Route{
			Prefix:  pfx,
			Path:    aspath.New(prov, aspath.ASN(65000+i)),
			NextHop: netip.MustParseAddr("192.0.2.1"),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.AcceptAnnouncement(a, obs.TraceContext{}); err != nil {
			t.Fatal(err)
		}
	}
	check := func(when string) {
		t.Helper()
		got, err := e.Providers(pfx)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if len(got) != 2 || got[0] != 201 || got[1] != 203 {
			t.Fatalf("%s: providers = %v, want [AS201 AS203]", when, got)
		}
	}
	check("before seal")
	if _, err := e.SealEpoch(); err != nil {
		t.Fatal(err)
	}
	check("after seal")
	if _, err := e.Providers(prefix.MustParse("198.51.100.0/24")); err == nil {
		t.Fatal("Providers for an unknown prefix succeeded")
	}
}
