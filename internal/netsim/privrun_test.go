package netsim

import (
	"context"
	"testing"
)

// TestRunPrivE17 is the E17 acceptance run: every anonymous ring-signed
// provider query is granted and verifies, every adversarial query is
// denied, the server-side observer learns nothing beyond the ring, and
// every third-party ZK opening verifies against the gossiped seal.
func TestRunPrivE17(t *testing.T) {
	res, err := RunPriv(context.Background(), PrivConfig{Prefixes: 8, RingK: 3, Shards: 2, MaxLen: 12})
	if err != nil {
		t.Fatal(err)
	}
	if res.AnonQueries != 8*3 || res.AnonVerified != res.AnonQueries {
		t.Fatalf("anonymous grants: %d/%d verified", res.AnonVerified, res.AnonQueries)
	}
	if res.Denied != res.Adversarial || res.Adversarial == 0 {
		t.Fatalf("adversarial denials: %d/%d", res.Denied, res.Adversarial)
	}
	if res.WrongGrants != 0 || res.WrongDenials != 0 || res.VerifyFailures != 0 {
		t.Fatalf("correctness violated: wrongGrants=%d wrongDenials=%d verifyFailures=%d",
			res.WrongGrants, res.WrongDenials, res.VerifyFailures)
	}
	if res.ObserverPairs != 8 || res.DistinguishableViews != 0 {
		t.Fatalf("observer test: %d pairs, %d distinguishable", res.ObserverPairs, res.DistinguishableViews)
	}
	if res.AttributedServes != 0 {
		t.Fatalf("%d anonymous serves were attributed in the server's event log", res.AttributedServes)
	}
	if res.AuditorQueries != 8 || res.ProofsVerified != res.AuditorQueries {
		t.Fatalf("auditor openings: %d/%d verified", res.ProofsVerified, res.AuditorQueries)
	}
	if res.RingSigBytes == 0 || res.ProofBytes == 0 || res.CommitmentsBytes == 0 {
		t.Fatalf("sizes unmeasured: sig=%d proof=%d commitments=%d",
			res.RingSigBytes, res.ProofBytes, res.CommitmentsBytes)
	}
	if res.RingVerifyP50 <= 0 || res.ProofVerP50 <= 0 {
		t.Fatalf("latency quantiles unmeasured: ringVerify=%s proofVerify=%s",
			res.RingVerifyP50, res.ProofVerP50)
	}
}

func TestRunPrivContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunPriv(ctx, PrivConfig{Prefixes: 4, RingK: 2}); err == nil {
		t.Fatal("cancelled run reported no error")
	}
}
