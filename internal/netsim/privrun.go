package netsim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"time"

	"pvr/internal/aspath"
	"pvr/internal/core"
	"pvr/internal/discplane"
	"pvr/internal/engine"
	"pvr/internal/netx"
	"pvr/internal/obs"
	"pvr/internal/privplane"
	"pvr/internal/route"
	"pvr/internal/sigs"
	"pvr/internal/trace"
	"pvr/internal/zkp"
)

// PrivConfig parameterizes a privacy-plane run (experiment E17): one
// ZK-sealing prover serving anonymous ring-signed provider queries and
// zero-knowledge auditor openings, with a server-side observer check that
// the anonymous path leaks nothing beyond the ring, and an adversarial
// phase that must be denied throughout.
type PrivConfig struct {
	// Prefixes is the sealed table size (default 24).
	Prefixes int
	// RingK is the ring size: providers announcing each prefix, all of
	// whom join every anonymity set (default 4, floor 2).
	RingK int
	// Shards is the prover engine's shard count (default 4).
	Shards int
	// MaxLen is the committed bit-vector length K (default 16).
	MaxLen int
	// Seed reserves determinism knobs for future mixes; the run itself is
	// fully deterministic already.
	Seed int64
}

func (c *PrivConfig) fill() {
	if c.Prefixes < 1 {
		c.Prefixes = 24
	}
	if c.RingK < 2 {
		c.RingK = 4
	}
	if c.Shards < 1 {
		c.Shards = 4
	}
	if c.MaxLen < 2 {
		c.MaxLen = 16
	}
}

// PrivResult reports a full E17 run.
type PrivResult struct {
	Prefixes, RingK int
	// AnonQueries / AnonVerified: ring-signed provider queries issued and
	// the granted views that passed §3.3 verification against the member's
	// own announcement.
	AnonQueries, AnonVerified int
	// Adversarial / Denied: hostile anonymous queries issued (outsider
	// rings, tampered signatures, replays, undeclared positions) and how
	// many the server refused. WrongGrants counts any that were granted —
	// must be zero.
	Adversarial, Denied int
	// AuditorQueries / ProofsVerified: third-party ZK openings fetched and
	// verified against the gossiped seal.
	AuditorQueries, ProofsVerified int
	// WrongGrants, WrongDenials, VerifyFailures must all be zero.
	WrongGrants, WrongDenials, VerifyFailures int
	// DistinguishableViews counts anonymous responses that differed across
	// ring members asking for the same position, and AttributedServes
	// counts served-event attributions (AS != 0) on the anonymous path —
	// the server-side observer test; both must be zero.
	DistinguishableViews, AttributedServes int
	// ObserverPairs is how many same-position signer pairs the observer
	// test compared.
	ObserverPairs int
	// Wire and proof sizes, in bytes.
	RingSigBytes, ProofBytes, CommitmentsBytes int
	// Latency quantiles from the privacy plane's own histograms.
	SignP50, SignP99             time.Duration
	RingVerifyP50, RingVerifyP99 time.Duration
	ProofGenP50, ProofGenP99     time.Duration
	ProofVerP50, ProofVerP99     time.Duration
	Elapsed                      time.Duration
}

// RunPriv executes one privacy-plane run, bounded by ctx (cancellation
// observed between queries).
func RunPriv(ctx context.Context, cfg PrivConfig) (*PrivResult, error) {
	cfg.fill()
	start := time.Now()
	reg := sigs.NewRegistry()
	signers := make(map[aspath.ASN]sigs.Signer)
	dir := privplane.NewDirectory()
	ringKeys := make(map[aspath.ASN]*privplane.RingKey)
	providers := make([]aspath.ASN, cfg.RingK)
	for j := range providers {
		providers[j] = queryProvider + aspath.ASN(j)
	}
	for _, asn := range append([]aspath.ASN{queryProver, queryOutsider}, providers...) {
		s, err := sigs.GenerateEd25519()
		if err != nil {
			return nil, err
		}
		signers[asn] = s
		reg.Register(asn, s.Public())
	}
	for _, asn := range providers {
		rk, err := privplane.GenerateRingKey(asn)
		if err != nil {
			return nil, err
		}
		ringKeys[asn] = rk
		dir.Register(asn, rk.Public())
	}
	// The outsider holds a ring key too: its attacks must fail on the
	// declared-provider check, not on a missing key.
	outKey, err := privplane.GenerateRingKey(queryOutsider)
	if err != nil {
		return nil, err
	}
	dir.Register(queryOutsider, outKey.Public())

	eng, err := engine.New(engine.Config{
		ASN: queryProver, Signer: signers[queryProver], Registry: reg,
		Shards: cfg.Shards, MaxLen: cfg.MaxLen, ZKBind: true,
	})
	if err != nil {
		return nil, err
	}
	eng.BeginEpoch(1)
	uni := trace.Universe(cfg.Prefixes)
	anns := make([][]core.Announcement, cfg.Prefixes)
	lengths := make([][]int, cfg.Prefixes)
	var flat []core.Announcement
	for i, pfx := range uni {
		anns[i] = make([]core.Announcement, cfg.RingK)
		lengths[i] = make([]int, cfg.RingK)
		for j, prov := range providers {
			length := 1 + (i+j)%cfg.MaxLen
			asns := make([]aspath.ASN, length)
			asns[0] = prov
			for k := 1; k < length; k++ {
				asns[k] = aspath.ASN(65000 + k)
			}
			a, err := core.NewAnnouncement(signers[prov], prov, queryProver, 1, route.Route{
				Prefix:  pfx,
				Path:    aspath.New(asns...),
				NextHop: netip.AddrFrom4([4]byte{192, 0, 2, 1}),
			})
			if err != nil {
				return nil, err
			}
			anns[i][j] = a
			lengths[i][j] = length
			flat = append(flat, a)
		}
	}
	if _, err := eng.AcceptAll(flat, cfg.Shards); err != nil {
		return nil, err
	}
	if _, err := eng.SealEpoch(); err != nil {
		return nil, err
	}

	obsReg := obs.NewRegistry()
	tracer := obs.NewTracer(4096)
	plane, err := privplane.New(privplane.Config{Engine: eng, Dir: dir, Obs: obsReg})
	if err != nil {
		return nil, err
	}
	kb, err := signers[queryProver].Public().Marshal()
	if err != nil {
		return nil, err
	}
	srv, err := discplane.NewServer(discplane.Config{
		ASN: queryProver, Engine: eng, Registry: reg,
		Key: kb, Priv: plane, Obs: obsReg, Tracer: tracer,
	})
	if err != nil {
		return nil, err
	}
	client, server := netx.Pipe()
	defer client.Close()
	go func() {
		defer server.Close()
		for srv.Respond(server) == nil {
		}
	}()

	ring, err := privplane.CanonicalRing(providers)
	if err != nil {
		return nil, err
	}
	res := &PrivResult{Prefixes: cfg.Prefixes, RingK: cfg.RingK}
	signAnon := func(signer aspath.ASN, i, position int, members []aspath.ASN) (*discplane.AnonQuery, error) {
		q := &discplane.AnonQuery{
			Prover: queryProver, Epoch: 1, Prefix: uni[i],
			Position: uint32(position), Ring: members,
		}
		if err := q.Sign(plane, ringKeys[signer]); err != nil {
			return nil, err
		}
		return q, nil
	}

	// Phase 1 — anonymous provider queries: every ring member pulls its
	// own bit for every prefix and verifies it against the announcement it
	// kept, identity never on the wire.
	for i := range uni {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for j, prov := range providers {
			q, err := signAnon(prov, i, lengths[i][j], ring)
			if err != nil {
				return nil, err
			}
			res.AnonQueries++
			if res.RingSigBytes == 0 {
				res.RingSigBytes = len(q.Sig)
			}
			v, err := discplane.FetchAnon(client, q)
			if err != nil {
				if errors.Is(err, discplane.ErrAccessDenied) {
					res.WrongDenials++
					continue
				}
				return nil, err
			}
			pv := &engine.ProviderView{Sealed: v.Sealed, Position: int(v.Position), Opening: *v.Opening}
			if err := engine.VerifyProviderView(reg, pv, anns[i][j]); err != nil {
				res.VerifyFailures++
				continue
			}
			res.AnonVerified++
		}
	}

	// Phase 2 — server-side observer test: two DIFFERENT ring members ask
	// for the same position; the responses must be byte-identical, so the
	// reply channel carries no signer information. The trace check below
	// covers the server's own event log.
	for i := range uni {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		pos := lengths[i][0]
		var payloads [][]byte
		for _, signer := range []aspath.ASN{providers[0], providers[1]} {
			q, err := signAnon(signer, i, pos, ring)
			if err != nil {
				return nil, err
			}
			v, err := discplane.FetchAnon(client, q)
			if err != nil {
				return nil, fmt.Errorf("netsim: observer-pair fetch: %w", err)
			}
			enc, err := v.Encode()
			if err != nil {
				return nil, err
			}
			payloads = append(payloads, enc)
		}
		res.ObserverPairs++
		if !bytes.Equal(payloads[0], payloads[1]) {
			res.DistinguishableViews++
		}
	}

	// Phase 3 — adversarial anonymous queries, all of which must be denied:
	// an outsider smuggled into the ring, a tampered signature, a replayed
	// query, and an undeclared position.
	adversarial := func(build func(i int) (*discplane.AnonQuery, error)) error {
		for i := range uni {
			if err := ctx.Err(); err != nil {
				return err
			}
			q, err := build(i)
			if err != nil {
				return err
			}
			res.Adversarial++
			if _, err := discplane.FetchAnon(client, q); errors.Is(err, discplane.ErrAccessDenied) {
				res.Denied++
			} else if err == nil {
				res.WrongGrants++
			} else {
				return fmt.Errorf("netsim: adversarial query failed oddly: %w", err)
			}
		}
		return nil
	}
	outsiderRing, err := privplane.CanonicalRing(append([]aspath.ASN{queryOutsider}, providers[:1]...))
	if err != nil {
		return nil, err
	}
	steps := []func(i int) (*discplane.AnonQuery, error){
		func(i int) (*discplane.AnonQuery, error) { // outsider in the ring
			q := &discplane.AnonQuery{Prover: queryProver, Epoch: 1, Prefix: uni[i],
				Position: uint32(lengths[i][0]), Ring: outsiderRing}
			return q, q.Sign(plane, outKey)
		},
		func(i int) (*discplane.AnonQuery, error) { // tampered signature
			q, err := signAnon(providers[0], i, lengths[i][0], ring)
			if err != nil {
				return nil, err
			}
			q.Sig[len(q.Sig)/2] ^= 0x40
			return q, nil
		},
		func(i int) (*discplane.AnonQuery, error) { // replay of a granted query
			q, err := signAnon(providers[0], i, lengths[i][0], ring)
			if err != nil {
				return nil, err
			}
			if _, err := discplane.FetchAnon(client, q); err != nil {
				return nil, fmt.Errorf("netsim: replay priming fetch: %w", err)
			}
			return q, nil
		},
		func(i int) (*discplane.AnonQuery, error) { // undeclared position
			return signAnon(providers[0], i, cfg.MaxLen+1+i, ring)
		},
	}
	for _, build := range steps {
		if err := adversarial(build); err != nil {
			return nil, err
		}
	}

	// Phase 4 — zero-knowledge auditor openings: a third party fetches the
	// RoleAuditor view for every prefix, checks the seal chain, cross-checks
	// the seal against what the prover gossips, and verifies the vector
	// proof — no bit opened anywhere. The verifier plane is client-only.
	verifierReg := obs.NewRegistry()
	verifier, err := privplane.New(privplane.Config{Dir: privplane.NewDirectory(), Obs: verifierReg})
	if err != nil {
		return nil, err
	}
	gossiped := make(map[uint32][]byte)
	for _, s := range eng.Seals() {
		gossiped[s.Shard] = s.Statement().Payload
	}
	for i, pfx := range uni {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		q := &discplane.Query{Role: discplane.RoleAuditor, Epoch: 1, Prefix: pfx}
		res.AuditorQueries++
		v, err := discplane.Fetch(client, q)
		if err != nil {
			res.WrongDenials++
			continue
		}
		if v.Opening != nil || len(v.Openings) > 0 || v.Export != nil {
			res.WrongGrants++
			continue
		}
		if err := v.Sealed.Verify(reg); err != nil {
			res.VerifyFailures++
			continue
		}
		// The seal the view rode in on must be the very statement the
		// prover gossips: the proof then binds to gossip-checkable state.
		if want, ok := gossiped[v.Sealed.Seal.Shard]; !ok || !bytes.Equal(want, v.Sealed.Seal.Statement().Payload) {
			res.VerifyFailures++
			continue
		}
		vv := &privplane.VectorView{Commitments: v.ZKCommitments, Proof: v.ZKProof}
		if err := verifier.VerifyAuditorProof(v.Sealed, vv); err != nil {
			res.VerifyFailures++
			continue
		}
		res.ProofsVerified++
		if res.ProofBytes == 0 {
			res.ProofBytes = v.ZKProof.Size()
			res.CommitmentsBytes = len(zkp.MarshalCommitments(v.ZKCommitments))
		}
		// Negative control on the first prefix: a proof transplanted onto
		// a different prefix's seal must fail.
		if i == 0 && cfg.Prefixes > 1 {
			q2 := &discplane.Query{Role: discplane.RoleAuditor, Epoch: 1, Prefix: uni[1]}
			v2, err := discplane.Fetch(client, q2)
			if err == nil {
				if verifier.VerifyAuditorProof(v2.Sealed, vv) == nil {
					res.WrongGrants++
				}
			}
		}
	}

	// The server-side event log: anonymous serves must be attributed to
	// nobody (AS 0, ring size only).
	for _, ev := range tracer.Recent(4096) {
		if ev.Kind == obs.EvDisclosureServed && strings.HasPrefix(ev.Note, "provider(anon") && ev.AS != 0 {
			res.AttributedServes++
		}
	}

	q := func(name string, p float64) time.Duration {
		v, ok := obsReg.Quantile(name, p)
		if !ok {
			return 0
		}
		return time.Duration(v * float64(time.Second))
	}
	res.SignP50, res.SignP99 = q("pvr_priv_ring_sign_seconds", 0.50), q("pvr_priv_ring_sign_seconds", 0.99)
	res.RingVerifyP50, res.RingVerifyP99 = q("pvr_priv_ring_verify_seconds", 0.50), q("pvr_priv_ring_verify_seconds", 0.99)
	res.ProofGenP50, res.ProofGenP99 = q("pvr_priv_proof_gen_seconds", 0.50), q("pvr_priv_proof_gen_seconds", 0.99)
	// Proof verification happens in the third party's plane, so its
	// quantiles come from the verifier's registry, not the server's.
	qv := func(name string, p float64) time.Duration {
		v, ok := verifierReg.Quantile(name, p)
		if !ok {
			return 0
		}
		return time.Duration(v * float64(time.Second))
	}
	res.ProofVerP50, res.ProofVerP99 = qv("pvr_priv_proof_verify_seconds", 0.50), qv("pvr_priv_proof_verify_seconds", 0.99)
	res.Elapsed = time.Since(start)
	return res, nil
}
