package engine

import (
	"testing"

	"pvr/internal/aspath"
	"pvr/internal/core"
	"pvr/internal/obs"
	"pvr/internal/zkp"
)

func zkEngine(t *testing.T, e *env, shards, maxLen int) *ProverEngine {
	t.Helper()
	eng, err := New(Config{
		ASN: tProver, Signer: e.signers[tProver], Registry: e.reg,
		Shards: shards, MaxLen: maxLen, ZKBind: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestZKBindSealsAndVerifies checks the ZK bridge end to end: a ZKBind
// engine seals Pedersen vectors into its leaves, every disclosure carries
// the digest, the digest matches the openings the engine hands the privacy
// plane, and a proof over those openings verifies while a tampered digest
// breaks Merkle inclusion.
func TestZKBindSealsAndVerifies(t *testing.T) {
	const k = 3
	e := newEnv(t, k)
	eng := zkEngine(t, e, 2, 8)
	eng.BeginEpoch(1)
	pfxs := testPrefixes(t, 5)
	for i, pfx := range pfxs {
		for j := 0; j < k; j++ {
			if err := eng.AcceptAnnouncement(e.announce(t, aspath.ASN(101+j), 1, pfx, 1+(i+j)%8), obs.TraceContext{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := eng.SealEpoch(); err != nil {
		t.Fatal(err)
	}
	for _, pfx := range pfxs {
		sc, err := eng.Commitment(pfx)
		if err != nil {
			t.Fatal(err)
		}
		if !sc.HasZK {
			t.Fatalf("%s: sealed without ZK digest under ZKBind", pfx)
		}
		if err := sc.Verify(e.reg); err != nil {
			t.Fatalf("%s: %v", pfx, err)
		}
		cs, os, sc2, err := eng.ZKOpenings(pfx)
		if err != nil {
			t.Fatal(err)
		}
		if zkp.DigestCommitments(cs) != sc.ZKDigest || sc2.ZKDigest != sc.ZKDigest {
			t.Fatalf("%s: openings do not match the sealed digest", pfx)
		}
		// The privacy plane's third-party proof verifies against this vector.
		ctx := []byte(pfx.String())
		vp, err := zkp.ProveVector(cs, os, ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := zkp.VerifyVector(cs, vp, ctx); err != nil {
			t.Fatalf("%s: vector proof: %v", pfx, err)
		}
		// A swapped digest must break leaf inclusion.
		bad := *sc
		bad.ZKDigest[0] ^= 1
		if bad.Verify(e.reg) == nil {
			t.Fatalf("%s: tampered ZK digest verified", pfx)
		}
		// Dropping the digest entirely must also break inclusion: the leaf
		// was built with it.
		bad2 := *sc
		bad2.HasZK = false
		if bad2.Verify(e.reg) == nil {
			t.Fatalf("%s: stripped ZK digest verified", pfx)
		}
	}
}

// TestZKStateInvalidatedOnChurn replaces a prefix after sealing and checks
// the re-sealed leaf carries a fresh Pedersen vector consistent with the
// new bits.
func TestZKStateInvalidatedOnChurn(t *testing.T) {
	e := newEnv(t, 2)
	eng := zkEngine(t, e, 1, 8)
	eng.BeginEpoch(1)
	pfx := testPrefixes(t, 1)[0]
	if err := eng.AcceptAnnouncement(e.announce(t, 101, 1, pfx, 5), obs.TraceContext{}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SealEpoch(); err != nil {
		t.Fatal(err)
	}
	before, err := eng.Commitment(pfx)
	if err != nil {
		t.Fatal(err)
	}
	// Replace with a shorter route: min moves from 5 to 2, bits change.
	if err := eng.ReplacePrefix(pfx, []core.Announcement{e.announce(t, 102, 1, pfx, 2)}, obs.TraceContext{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.SealDirty(); err != nil {
		t.Fatal(err)
	}
	after, err := eng.Commitment(pfx)
	if err != nil {
		t.Fatal(err)
	}
	if !after.HasZK {
		t.Fatal("re-sealed leaf lost its ZK digest")
	}
	if after.ZKDigest == before.ZKDigest {
		t.Fatal("ZK digest unchanged after the committed bits changed")
	}
	if err := after.Verify(e.reg); err != nil {
		t.Fatal(err)
	}
}

// TestDiscloseAtLength checks the anonymous-opening engine path: declared
// lengths open, undeclared lengths refuse.
func TestDiscloseAtLength(t *testing.T) {
	e := newEnv(t, 2)
	eng := zkEngine(t, e, 1, 8)
	eng.BeginEpoch(1)
	pfx := testPrefixes(t, 1)[0]
	a := e.announce(t, 101, 1, pfx, 3)
	if err := eng.AcceptAnnouncement(a, obs.TraceContext{}); err != nil {
		t.Fatal(err)
	}
	if err := eng.AcceptAnnouncement(e.announce(t, 102, 1, pfx, 5), obs.TraceContext{}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SealEpoch(); err != nil {
		t.Fatal(err)
	}
	v, err := eng.DiscloseAtLength(pfx, 3)
	if err != nil {
		t.Fatal(err)
	}
	if v.Position != 3 {
		t.Fatalf("opened position %d, want 3", v.Position)
	}
	// The anonymous asker verifies exactly like a named provider: against
	// its own announcement.
	if err := VerifyProviderView(e.reg, v, a); err != nil {
		t.Fatal(err)
	}
	// Positions no input declared must refuse — an anonymous asker cannot
	// probe arbitrary bits.
	for _, pos := range []int{1, 2, 4, 6, 0, -1, 100} {
		if _, err := eng.DiscloseAtLength(pfx, pos); err == nil {
			t.Fatalf("undeclared position %d opened", pos)
		}
	}
}
