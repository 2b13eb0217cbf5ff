package engine

import (
	"errors"
	"testing"

	"pvr/internal/aspath"
	"pvr/internal/obs"
)

// TestPipelineRejectsConvictedProver: once the audit layer convicts a
// prover, the pipeline refuses its disclosures outright — even ones that
// would verify cryptographically.
func TestPipelineRejectsConvictedProver(t *testing.T) {
	e := newEnv(t, 2)
	eng := e.engine(t, 2, 16)
	eng.BeginEpoch(1)
	pfxs := testPrefixes(t, 4)
	for _, pfx := range pfxs {
		for _, ni := range []aspath.ASN{101, 102} {
			if err := eng.AcceptAnnouncement(e.announce(t, ni, 1, pfx, 3), obs.TraceContext{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := eng.SealEpoch(); err != nil {
		t.Fatal(err)
	}

	convicted := map[aspath.ASN]bool{tProver: true}

	// Banlisted pipeline: every view from the convicted prover fails with
	// ErrConvictedProver, none as a Violation, none verifies.
	pl := NewPipeline(e.reg, 2)
	defer pl.Close()
	pl.SetBanlist(func(asn aspath.ASN) bool { return convicted[asn] })
	for _, pfx := range pfxs {
		v, err := eng.DiscloseToPromisee(pfx, tPromisee)
		if err != nil {
			t.Fatal(err)
		}
		pl.SubmitPromisee(v, tPromisee)
	}
	ann := e.announce(t, 101, 1, pfxs[0], 3)
	pv, err := eng.DiscloseToProvider(pfxs[0], 101)
	if err != nil {
		t.Fatal(err)
	}
	pl.SubmitProvider(pv, ann)
	results := pl.Drain()
	if len(results) != len(pfxs)+1 {
		t.Fatalf("got %d results, want %d", len(results), len(pfxs)+1)
	}
	for _, r := range results {
		if !errors.Is(r.Err, ErrConvictedProver) {
			t.Fatalf("result %s: err = %v, want ErrConvictedProver", r.Prefix, r.Err)
		}
		if _, isViol := r.Violation(); isViol {
			t.Fatal("conviction rejection misreported as protocol violation")
		}
	}

	// Control: the same views pass once the conviction is lifted.
	pl2 := NewPipeline(e.reg, 2)
	defer pl2.Close()
	pl2.SetBanlist(func(aspath.ASN) bool { return false })
	v, err := eng.DiscloseToPromisee(pfxs[0], tPromisee)
	if err != nil {
		t.Fatal(err)
	}
	pl2.SubmitPromisee(v, tPromisee)
	for _, r := range pl2.Drain() {
		if r.Err != nil {
			t.Fatalf("clean view rejected with empty banlist: %v", r.Err)
		}
	}
}
