// Package netsim orchestrates whole-system PVR simulations: the paper's
// Fig. 1 star with Byzantine fault injection (exercising Detection,
// Evidence, Accuracy, and Confidentiality end to end), and plain-vs-PVR
// BGP convergence runs over synthetic topologies for the overhead
// experiments.
package netsim

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"time"

	"pvr/internal/aspath"
	"pvr/internal/auditnet"
	"pvr/internal/commit"
	"pvr/internal/core"
	"pvr/internal/evidence"
	"pvr/internal/gossip"
	"pvr/internal/prefix"
	"pvr/internal/route"
	"pvr/internal/sigs"
)

// Fault selects the Byzantine behaviour injected into the prover A.
type Fault int

// Faults. Each corresponds to a misbehaviour the §2.3 properties must
// catch (or, for FaultNone, must not falsely report).
const (
	// FaultNone: honest prover.
	FaultNone Fault = iota
	// FaultSuppress: A received routes but commits the all-zero vector and
	// exports nothing (denying service while appearing consistent to B).
	FaultSuppress
	// FaultWrongExport: A commits honest bits but exports a longer route
	// than the committed minimum (e.g. steering traffic to a favored peer).
	FaultWrongExport
	// FaultEquivocate: A shows different commitments to different
	// neighbors (lying selectively).
	FaultEquivocate
)

// String names the fault.
func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultSuppress:
		return "suppress"
	case FaultWrongExport:
		return "wrong-export"
	case FaultEquivocate:
		return "equivocate"
	}
	return fmt.Sprintf("fault(%d)", int(f))
}

// Fig1Config parameterizes a star-scenario run.
type Fig1Config struct {
	// K is the number of providers N_1…N_K.
	K int
	// MaxLen is the committed bit-vector length (max AS-path length).
	MaxLen int
	// Fault is the injected misbehaviour.
	Fault Fault
	// Providers holds each N_i's route length (1..MaxLen, 0 = abstain);
	// nil draws lengths from Seed.
	Providers []int
	// Seed drives the random route lengths when Providers is nil.
	Seed int64
	// Scheme selects the signature algorithm (default Ed25519; the
	// RSA1024 option matches the paper's §3.8 cost discussion).
	Scheme sigs.Scheme
}

// Fig1Result reports what every party observed.
type Fig1Result struct {
	// Detected is true when at least one correct neighbor caught the
	// prover (the Detection property).
	Detected bool
	// DetectedBy lists the neighbors that detected, ascending.
	DetectedBy []aspath.ASN
	// GuiltyVerdicts counts evidence records a third-party judge convicted
	// on (the Evidence property).
	GuiltyVerdicts int
	// FalseAccusations counts honest-prover evidence wrongly upheld (must
	// stay 0: the Accuracy property).
	FalseAccusations int
	// Exported is the route B accepted (nil when nothing was exported).
	Exported *route.Route
	// BitsSeenByB is the opened vector; the confidentiality audit checks
	// it carries nothing beyond the export.
	BitsSeenByB []bool
	// Elapsed is the wall-clock protocol time (all parties, one epoch).
	Elapsed time.Duration
}

const (
	fig1Prover   = aspath.ASN(64500)
	fig1Promisee = aspath.ASN(200)
	fig1Epoch    = uint64(1)
)

// RunFig1 executes one epoch of the §3.3 minimum-operator protocol on the
// Fig. 1 star, with the configured fault, and returns what the neighbors
// observed. It builds a fresh PKI per call.
func RunFig1(cfg Fig1Config) (*Fig1Result, error) {
	if cfg.K < 1 {
		return nil, errors.New("netsim: K must be positive")
	}
	if cfg.MaxLen < 1 {
		cfg.MaxLen = 16
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pfx := prefix.MustParse("203.0.113.0/24")

	// PKI.
	reg := sigs.NewRegistry()
	signers := make(map[aspath.ASN]sigs.Signer)
	parties := []aspath.ASN{fig1Prover, fig1Promisee}
	providers := make([]aspath.ASN, cfg.K)
	for i := 0; i < cfg.K; i++ {
		providers[i] = aspath.ASN(101 + i)
		parties = append(parties, providers[i])
	}
	for _, asn := range parties {
		var (
			s   sigs.Signer
			err error
		)
		if cfg.Scheme == sigs.RSA {
			s, err = sigs.GenerateRSA(1024)
		} else {
			s, err = sigs.GenerateEd25519()
		}
		if err != nil {
			return nil, err
		}
		signers[asn] = s
		reg.Register(asn, s.Public())
	}

	start := time.Now()
	res := &Fig1Result{}

	// Providers announce.
	lengths := cfg.Providers
	if lengths == nil {
		lengths = make([]int, cfg.K)
		for i := range lengths {
			lengths[i] = 1 + rng.Intn(cfg.MaxLen)
		}
	}
	if len(lengths) != cfg.K {
		return nil, errors.New("netsim: Providers length != K")
	}
	anns := make(map[aspath.ASN]core.Announcement)
	receipts := make(map[aspath.ASN]core.Receipt)
	p, err := core.NewProver(fig1Prover, signers[fig1Prover], reg, cfg.MaxLen)
	if err != nil {
		return nil, err
	}
	p.BeginEpoch(fig1Epoch, pfx)
	for i, ni := range providers {
		if lengths[i] == 0 {
			continue
		}
		ann, err := makeAnnouncement(signers[ni], ni, fig1Prover, fig1Epoch, pfx, lengths[i])
		if err != nil {
			return nil, err
		}
		rc, err := p.AcceptAnnouncement(ann)
		if err != nil {
			return nil, err
		}
		anns[ni] = ann
		receipts[ni] = rc
	}

	// Commit (honest or Byzantine).
	views, pview, gossipStmts, err := buildViews(p, signers[fig1Prover], reg, cfg, pfx, anns)
	if err != nil {
		return nil, err
	}

	// Gossip round, one audit store per neighbor: every pair hands each
	// other the statement it holds, and a store already holding a
	// different one for the topic reports the equivocation. A neighbor
	// that held nothing keeps what it is given and passes it on.
	neighbors := append(append([]aspath.ASN{}, providers...), fig1Promisee)
	stores := make(map[aspath.ASN]*auditnet.Store, len(neighbors))
	deliver := func(to, from aspath.ASN) (*gossip.Conflict, error) {
		s, ok := gossipStmts[from]
		if !ok {
			return nil, nil
		}
		added, c, err := stores[to].AddRecord(auditnet.Record{Epoch: fig1Epoch, S: s})
		if added {
			gossipStmts[to] = s
		}
		return c, err
	}
	for _, n := range neighbors {
		stores[n] = auditnet.NewStore(reg)
		if _, err := deliver(n, n); err != nil {
			return nil, err
		}
	}
	detected := map[aspath.ASN]bool{}
	for i := 0; i < len(neighbors); i++ {
		for j := i + 1; j < len(neighbors); j++ {
			for _, dir := range [][2]aspath.ASN{{neighbors[i], neighbors[j]}, {neighbors[j], neighbors[i]}} {
				c, err := deliver(dir[0], dir[1])
				if err != nil {
					return nil, err
				}
				if c == nil {
					continue
				}
				ev := &evidence.Evidence{
					Kind: evidence.KindEquivocation, Accused: fig1Prover,
					Accuser: neighbors[i], Conflict: c,
				}
				v, _, jerr := evidence.Judge(reg, ev)
				if jerr != nil {
					return nil, jerr
				}
				if v == evidence.Guilty {
					res.GuiltyVerdicts++
					detected[neighbors[i]] = true
				} else if cfg.Fault == FaultNone {
					res.FalseAccusations++
				}
			}
		}
	}

	// Provider verification, in ascending provider order so runs with the
	// same seed replay identically (map iteration order is randomized).
	for _, ni := range sortedProviders(anns) {
		ann := anns[ni]
		view, ok := views[ni]
		if !ok {
			continue
		}
		err := core.VerifyProviderView(reg, view, ann)
		if v, isViol := core.IsViolation(err); isViol {
			detected[ni] = true
			ev := &evidence.Evidence{
				Kind: evidence.Kind(v.Kind), Accused: fig1Prover, Accuser: ni,
				MinCommitment: view.Commitment, Position: view.Position,
				Opening: &view.Opening,
			}
			a := ann
			rc := receipts[ni]
			ev.Announcement = &a
			ev.Receipt = &rc
			verdict, _, jerr := evidence.Judge(reg, ev)
			if jerr != nil {
				return nil, jerr
			}
			if verdict == evidence.Guilty {
				res.GuiltyVerdicts++
			} else if cfg.Fault == FaultNone {
				res.FalseAccusations++
			}
		} else if err != nil {
			return nil, err
		}
	}

	// Promisee verification.
	err = core.VerifyPromiseeView(reg, pview)
	if v, isViol := core.IsViolation(err); isViol {
		detected[fig1Promisee] = true
		ev := &evidence.Evidence{
			Kind: evidence.Kind(v.Kind), Accused: fig1Prover,
			Accuser: fig1Promisee, PromiseeView: pview,
		}
		verdict, _, jerr := evidence.Judge(reg, ev)
		if jerr != nil {
			return nil, jerr
		}
		if verdict == evidence.Guilty {
			res.GuiltyVerdicts++
		} else if cfg.Fault == FaultNone {
			res.FalseAccusations++
		}
	} else if err != nil {
		return nil, err
	}

	// Record B's observations for the confidentiality audit.
	for _, op := range pview.Openings {
		b, berr := op.Bit()
		if berr != nil {
			return nil, berr
		}
		res.BitsSeenByB = append(res.BitsSeenByB, b)
	}
	if !pview.Export.Empty {
		r := pview.Export.Route
		res.Exported = &r
	}

	for n := range detected {
		res.DetectedBy = append(res.DetectedBy, n)
	}
	sortASNs(res.DetectedBy)
	res.Detected = len(res.DetectedBy) > 0
	res.Elapsed = time.Since(start)
	return res, nil
}

// buildViews produces the per-neighbor disclosures according to the fault.
func buildViews(p *core.Prover, proverSigner sigs.Signer, reg *sigs.Registry, cfg Fig1Config, pfx prefix.Prefix, anns map[aspath.ASN]core.Announcement) (map[aspath.ASN]*core.ProviderView, *core.PromiseeView, map[aspath.ASN]gossip.Statement, error) {
	stmts := make(map[aspath.ASN]gossip.Statement)

	switch cfg.Fault {
	case FaultNone:
		mc, err := p.CommitMin()
		if err != nil {
			return nil, nil, nil, err
		}
		stmt, err := statementOf(mc)
		if err != nil {
			return nil, nil, nil, err
		}
		views := make(map[aspath.ASN]*core.ProviderView)
		for _, ni := range sortedProviders(anns) {
			v, err := p.DiscloseToProvider(ni)
			if err != nil {
				return nil, nil, nil, err
			}
			views[ni] = v
			stmts[ni] = stmt
		}
		pv, err := p.DiscloseToPromisee(fig1Promisee)
		if err != nil {
			return nil, nil, nil, err
		}
		stmts[fig1Promisee] = stmt
		return views, pv, stmts, nil

	case FaultSuppress:
		// All-zero commitment; empty export; B's view is self-consistent.
		mc, openings, err := cheatingCommitment(proverSigner, pfx, make([]bool, cfg.MaxLen))
		if err != nil {
			return nil, nil, nil, err
		}
		stmt, err := statementOf(mc)
		if err != nil {
			return nil, nil, nil, err
		}
		views := make(map[aspath.ASN]*core.ProviderView)
		for _, ni := range sortedProviders(anns) {
			pos := anns[ni].Route.PathLen()
			views[ni] = &core.ProviderView{Commitment: mc, Position: pos, Opening: openings[pos-1]}
			stmts[ni] = stmt
		}
		exp, err := core.NewExportStatement(proverSigner, fig1Prover, fig1Promisee, fig1Epoch, route.Route{}, true)
		if err != nil {
			return nil, nil, nil, err
		}
		pv := &core.PromiseeView{Commitment: mc, Openings: openings, Export: exp}
		stmts[fig1Promisee] = stmt
		return views, pv, stmts, nil

	case FaultWrongExport:
		// Honest commitment, but B gets the *longest* input exported.
		mc, err := p.CommitMin()
		if err != nil {
			return nil, nil, nil, err
		}
		stmt, err := statementOf(mc)
		if err != nil {
			return nil, nil, nil, err
		}
		views := make(map[aspath.ASN]*core.ProviderView)
		for _, ni := range sortedProviders(anns) {
			v, err := p.DiscloseToProvider(ni)
			if err != nil {
				return nil, nil, nil, err
			}
			views[ni] = v
			stmts[ni] = stmt
		}
		pv, err := p.DiscloseToPromisee(fig1Promisee)
		if err != nil {
			return nil, nil, nil, err
		}
		var longest *core.Announcement
		for _, ni := range sortedProviders(anns) {
			a := anns[ni]
			if longest == nil || a.Route.PathLen() > longest.Route.PathLen() {
				longest = &a
			}
		}
		if longest != nil {
			exported, err := longest.Route.WithPrepended(fig1Prover)
			if err != nil {
				return nil, nil, nil, err
			}
			pv.Export, err = core.NewExportStatement(proverSigner, fig1Prover, fig1Promisee, fig1Epoch, exported, false)
			if err != nil {
				return nil, nil, nil, err
			}
			pv.Winner = longest
		}
		stmts[fig1Promisee] = stmt
		return views, pv, stmts, nil

	case FaultEquivocate:
		// Providers see an all-zero commitment... no wait: providers would
		// detect that immediately. The subtle equivocator shows each party
		// a commitment consistent with that party's expectations: honest
		// bits to the providers, an all-zero vector to B (hiding the
		// routes). Only gossip can catch this.
		honest, err := p.CommitMin()
		if err != nil {
			return nil, nil, nil, err
		}
		honestStmt, err := statementOf(honest)
		if err != nil {
			return nil, nil, nil, err
		}
		views := make(map[aspath.ASN]*core.ProviderView)
		for _, ni := range sortedProviders(anns) {
			v, err := p.DiscloseToProvider(ni)
			if err != nil {
				return nil, nil, nil, err
			}
			views[ni] = v
			stmts[ni] = honestStmt
		}
		zero, openings, err := cheatingCommitment(proverSigner, pfx, make([]bool, cfg.MaxLen))
		if err != nil {
			return nil, nil, nil, err
		}
		zeroStmt, err := statementOf(zero)
		if err != nil {
			return nil, nil, nil, err
		}
		exp, err := core.NewExportStatement(proverSigner, fig1Prover, fig1Promisee, fig1Epoch, route.Route{}, true)
		if err != nil {
			return nil, nil, nil, err
		}
		pv := &core.PromiseeView{Commitment: zero, Openings: openings, Export: exp}
		stmts[fig1Promisee] = zeroStmt
		return views, pv, stmts, nil
	}
	return nil, nil, nil, fmt.Errorf("netsim: unknown fault %v", cfg.Fault)
}

// cheatingCommitment builds a signed commitment over arbitrary bits, as a
// Byzantine prover would.
func cheatingCommitment(signer sigs.Signer, pfx prefix.Prefix, bits []bool) (*core.MinCommitment, []commit.Opening, error) {
	var cm commit.Committer
	id := core.VectorID(fig1Prover, pfx, fig1Epoch)
	mc := &core.MinCommitment{Prover: fig1Prover, Epoch: fig1Epoch, Prefix: pfx}
	openings := make([]commit.Opening, len(bits))
	for i, b := range bits {
		c, op, err := cm.CommitBit(commit.VectorTag(id, i+1), b)
		if err != nil {
			return nil, nil, err
		}
		mc.Commitments = append(mc.Commitments, c)
		openings[i] = op
	}
	b, _, err := mc.GossipPayload()
	if err != nil {
		return nil, nil, err
	}
	if mc.Sig, err = signer.Sign(b); err != nil {
		return nil, nil, err
	}
	return mc, openings, nil
}

func statementOf(mc *core.MinCommitment) (gossip.Statement, error) {
	payload, sig, err := mc.GossipPayload()
	if err != nil {
		return gossip.Statement{}, err
	}
	return gossip.Statement{
		Origin:  mc.Prover,
		Topic:   mc.GossipTopic(),
		Payload: payload,
		Sig:     sig,
	}, nil
}

func makeAnnouncement(signer sigs.Signer, from, to aspath.ASN, epoch uint64, pfx prefix.Prefix, pathLen int) (core.Announcement, error) {
	asns := make([]aspath.ASN, pathLen)
	asns[0] = from
	for i := 1; i < pathLen; i++ {
		asns[i] = aspath.ASN(90000 + i)
	}
	r := route.Route{
		Prefix:    pfx,
		Path:      aspath.New(asns...),
		NextHop:   netip.AddrFrom4([4]byte{10, 0, 0, byte(from)}),
		LocalPref: 100,
		Origin:    route.OriginIGP,
	}
	return core.NewAnnouncement(signer, from, to, epoch, r)
}

// sortedProviders returns the announcing providers in ascending ASN order,
// so every pass over the announcement map is deterministic.
func sortedProviders(anns map[aspath.ASN]core.Announcement) []aspath.ASN {
	out := make([]aspath.ASN, 0, len(anns))
	for ni := range anns {
		out = append(out, ni)
	}
	sortASNs(out)
	return out
}

func sortASNs(a []aspath.ASN) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
