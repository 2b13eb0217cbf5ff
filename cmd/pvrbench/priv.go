package main

import (
	"context"
	"fmt"
	"time"

	"pvr/internal/netsim"
)

// E17 — the privacy plane: anonymous ring-signed provider queries and
// zero-knowledge auditor openings over the wire (§3.2–3.3). One prover
// seals with ZK bindings and serves DISCLOSE-ANON and auditor queries;
// every ring member fetches its bit anonymously, a server-side observer
// test checks responses are byte-identical across signers, adversarial
// queries (outsider rings, tampered signatures, replays, undeclared
// positions) must all be denied, and a third party verifies "the promise
// holds" against the gossiped seal with no bit opened. The table sweeps
// the ring size k — the provider's anonymity-set size — and reports wire
// and proof sizes plus sign/verify latency quantiles; a run with any
// wrong grant, distinguishable view, or attribution aborts.

// privRing, when nonzero, collapses the E17 ring-size sweep to one size
// (set by -ring; benchgate uses it to re-run at the baseline's own k).
var privRing int

type privRow struct {
	Prefixes int `json:"prefixes"`
	RingK    int `json:"ring_k"`
	Queries  int `json:"queries"`
	Verified int `json:"verified"`
	Denied   int `json:"denied"`
	Proofs   int `json:"proofs_verified"`
	// Wire and proof sizes: the ring signature on an anonymous query, and
	// the ZK vector proof + Pedersen commitments an auditor downloads.
	RingSigBytes    int `json:"ringsig_bytes"`
	ProofSizeBytes  int `json:"proof_size_bytes"`
	CommitmentBytes int `json:"commitments_bytes"`
	// Latency quantiles from the privacy plane's histograms — ring-sign /
	// ring-verify on the anonymous path, proof gen (server) and proof
	// verify (auditor) on the ZK path. benchgate reads proof_size_bytes
	// and ring_verify_p50_us as regression metrics.
	SignP50Us       float64 `json:"sign_p50_us"`
	SignP99Us       float64 `json:"sign_p99_us"`
	RingVerifyP50Us float64 `json:"ring_verify_p50_us"`
	RingVerifyP99Us float64 `json:"ring_verify_p99_us"`
	ProofGenP50Us   float64 `json:"proof_gen_p50_us"`
	ProofGenP99Us   float64 `json:"proof_gen_p99_us"`
	ProofVerP50Us   float64 `json:"proof_verify_p50_us"`
	ProofVerP99Us   float64 `json:"proof_verify_p99_us"`
}

func runPriv(seed int64) error {
	header("E17 (§3.2–3.3)", "privacy plane: anonymous ring-signed queries and ZK auditor openings")
	sweep := []struct{ prefixes, ringK int }{
		{16, 2}, {16, 4}, {16, 8},
	}
	if benchPrefixes > 0 || privRing > 0 {
		pfx, k := 6, 3
		if benchPrefixes > 0 {
			pfx = benchPrefixes
		}
		if privRing > 0 {
			k = privRing
		}
		sweep = []struct{ prefixes, ringK int }{{pfx, k}}
	}
	fmt.Printf("%10s %8s %9s %9s %9s %8s %12s %12s %12s %12s\n",
		"prefixes", "ring k", "queries", "verified", "denied", "proofs", "sig bytes", "proof bytes", "ring vfy p50", "zk vfy p50")
	var rows []privRow
	for _, sz := range sweep {
		res, err := netsim.RunPriv(context.Background(), netsim.PrivConfig{
			Prefixes: sz.prefixes, RingK: sz.ringK, Seed: seed,
		})
		if err != nil {
			return err
		}
		if res.WrongGrants != 0 || res.WrongDenials != 0 || res.VerifyFailures != 0 {
			return fmt.Errorf("priv: correctness violated at k=%d: wrongGrants=%d wrongDenials=%d verifyFailures=%d",
				sz.ringK, res.WrongGrants, res.WrongDenials, res.VerifyFailures)
		}
		if res.DistinguishableViews != 0 || res.AttributedServes != 0 {
			return fmt.Errorf("priv: anonymity violated at k=%d: distinguishable=%d attributed=%d",
				sz.ringK, res.DistinguishableViews, res.AttributedServes)
		}
		fmt.Printf("%10d %8d %9d %9d %9d %8d %12d %12d %12s %12s\n",
			res.Prefixes, res.RingK, res.AnonQueries, res.AnonVerified, res.Denied,
			res.ProofsVerified, res.RingSigBytes, res.ProofBytes,
			res.RingVerifyP50.Round(time.Microsecond), res.ProofVerP50.Round(time.Microsecond))
		rows = append(rows, privRow{
			Prefixes: res.Prefixes, RingK: res.RingK,
			Queries: res.AnonQueries, Verified: res.AnonVerified, Denied: res.Denied,
			Proofs:          res.ProofsVerified,
			RingSigBytes:    res.RingSigBytes,
			ProofSizeBytes:  res.ProofBytes,
			CommitmentBytes: res.CommitmentsBytes,
			SignP50Us:       float64(res.SignP50) / 1e3,
			SignP99Us:       float64(res.SignP99) / 1e3,
			RingVerifyP50Us: float64(res.RingVerifyP50) / 1e3,
			RingVerifyP99Us: float64(res.RingVerifyP99) / 1e3,
			ProofGenP50Us:   float64(res.ProofGenP50) / 1e3,
			ProofGenP99Us:   float64(res.ProofGenP99) / 1e3,
			ProofVerP50Us:   float64(res.ProofVerP50) / 1e3,
			ProofVerP99Us:   float64(res.ProofVerP99) / 1e3,
		})
	}
	fmt.Println("  (every adversarial query denied, responses byte-identical across signers, no serve attributed)")
	if jsonOut != "" && jsonExp == "priv" {
		if err := writeJSONRows(rows); err != nil {
			return err
		}
	}
	return nil
}
