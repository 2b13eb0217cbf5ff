package netsim

import (
	"context"
	"fmt"

	"math/rand"

	"pvr/internal/aspath"
	"pvr/internal/auditnet"
	"pvr/internal/engine"
	"pvr/internal/obs"
	"pvr/internal/obs/fleet"
	"pvr/internal/sigs"
	"pvr/internal/trace"
)

// TraceConfig parameterizes a distributed-tracing run (experiment E16):
// K equivocating provers inject conflicting seal sets — each under one
// distributed trace minted at announce ingestion — into an N-node audit
// network, anti-entropy rounds spread statements and evidence, and a
// fleet collector stitches every trace's cross-participant chain back
// together. The run measures (a) whether every injected equivocation
// yields a fully stitched announce→seal→gossip→conviction chain and
// (b) the per-trace detection-round distribution against the
// ⌈log₂ N⌉+2 DetectionBound.
type TraceConfig struct {
	// Nodes is the audit network size (default 64; E16 requires ≥ 50).
	Nodes int
	// Fanout is peers contacted per node per round (default 3).
	Fanout int
	// Provers is the number of equivocating provers (default 8). Each
	// prover k seals its table twice for epoch 1 and shows one set to
	// node 2k and the other to node 2k+1, so Nodes must be ≥ 2·Provers.
	Provers int
	// MaxRounds caps the anti-entropy rounds (default 4·bound).
	MaxRounds int
	// Seed drives peer selection; equal seeds replay identical runs.
	Seed int64
	// Shards is each prover's engine shard count (default 2).
	Shards int
}

func (c *TraceConfig) fill() {
	if c.Nodes <= 1 {
		c.Nodes = 64
	}
	if c.Fanout < 1 {
		c.Fanout = 3
	}
	if c.Fanout > c.Nodes-1 {
		c.Fanout = c.Nodes - 1
	}
	if c.Provers < 1 {
		c.Provers = 8
	}
	if 2*c.Provers > c.Nodes {
		c.Provers = c.Nodes / 2
	}
	if c.MaxRounds < 1 {
		c.MaxRounds = 4 * DetectionBound(c.Nodes)
	}
	if c.Shards < 1 {
		c.Shards = 2
	}
}

func traceProverASN(k int) aspath.ASN { return gossipProver + aspath.ASN(k) }

// TraceChain reports one injected equivocation's stitched story.
type TraceChain struct {
	// Trace is the hex TraceID minted when the prover's announcement was
	// accepted; every event on the chain carries it.
	Trace string `json:"trace"`
	// Prover is the equivocating AS this trace belongs to.
	Prover uint32 `json:"prover"`
	// Spans counts the chain's events; Participants the distinct
	// recorders (the prover's engine plus every auditor that logged a
	// traced event).
	Spans        int `json:"spans"`
	Participants int `json:"participants"`
	// Stitched: the chain crosses participants AND holds the full
	// announce→seal→gossip→conviction kind set.
	Stitched bool `json:"stitched"`
	// DetectRound is the 1-based anti-entropy round at which the first
	// auditor convicted this prover (0 = never); WithinBound compares it
	// against DetectionBound(Nodes).
	DetectRound int  `json:"detect_round"`
	WithinBound bool `json:"within_bound"`
	// ConvictedNodes is how many auditors ended the run with this
	// prover in their convicted set.
	ConvictedNodes int `json:"convicted_nodes"`
}

// TraceResult reports a full E16 run.
type TraceResult struct {
	Nodes   int `json:"nodes"`
	Fanout  int `json:"fanout"`
	Provers int `json:"provers"`
	// Bound is DetectionBound(Nodes): ⌈log₂ N⌉+2.
	Bound int `json:"bound"`
	// Rounds is how many anti-entropy rounds actually ran.
	Rounds int `json:"rounds"`
	// Chains has one entry per injected equivocation (per prover).
	Chains []TraceChain `json:"chains"`
	// AllStitched / AllWithinBound summarize the acceptance criteria:
	// every chain fully stitched, every detection within the bound.
	AllStitched    bool `json:"all_stitched"`
	AllWithinBound bool `json:"all_within_bound"`
	// Fleet is the collector's rollup over every participant.
	Fleet fleet.Stats `json:"fleet"`
	// FleetConvictions sums the pvr_audit_convictions_total metric
	// across all auditors — the metric-plane view the event plane must
	// agree with.
	FleetConvictions float64 `json:"fleet_convictions"`
}

// RunTrace executes one E16 run (see TraceConfig), bounded by ctx,
// checked at every anti-entropy round boundary.
func RunTrace(ctx context.Context, cfg TraceConfig) (*TraceResult, error) {
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// PKI: N auditors, K provers, one shared upstream provider.
	reg := sigs.NewRegistry()
	for i := 0; i < cfg.Nodes; i++ {
		s, err := sigs.GenerateEd25519()
		if err != nil {
			return nil, err
		}
		reg.Register(gossipNodeASN(i), s.Public())
	}
	proverSigners := make([]sigs.Signer, cfg.Provers)
	for k := range proverSigners {
		s, err := sigs.GenerateEd25519()
		if err != nil {
			return nil, err
		}
		proverSigners[k] = s
		reg.Register(traceProverASN(k), s.Public())
	}
	providerSigner, err := sigs.GenerateEd25519()
	if err != nil {
		return nil, err
	}
	reg.Register(gossipProvider, providerSigner.Public())

	// Every participant gets its own tracer; the collector polls them
	// all. Auditors also get a metric registry so the fleet rollup can
	// cross-check conviction counts on the metric plane.
	collector := fleet.NewCollector()
	auditors := make([]*auditnet.Auditor, cfg.Nodes)
	for i := range auditors {
		tr := obs.NewTracer(4096)
		mreg := obs.NewRegistry()
		if auditors[i], err = auditnet.New(auditnet.Config{
			ASN: gossipNodeASN(i), Registry: reg, Obs: mreg, Tracer: tr,
		}); err != nil {
			return nil, err
		}
		collector.Add(fleet.NewTracerSource(gossipNodeASN(i).String(), tr, mreg))
	}

	// Inject K equivocations. Each prover mints ONE trace context at
	// announce time and reuses it for both conflicting seal rounds: the
	// two seal sets are rival statements about the same ingested state,
	// so they share the chain — exactly what lets the collector tie the
	// eventual conviction back to the announcement that started it.
	res := &TraceResult{Nodes: cfg.Nodes, Fanout: cfg.Fanout, Provers: cfg.Provers, Bound: DetectionBound(cfg.Nodes)}
	traces := make([]obs.TraceContext, cfg.Provers)
	detectRound := make([]int, cfg.Provers)
	for k := 0; k < cfg.Provers; k++ {
		asn := traceProverASN(k)
		tr := obs.NewTracer(256)
		eng, err := engine.New(engine.Config{
			ASN: asn, Signer: proverSigners[k], Registry: reg,
			MaxLen: 16, Shards: cfg.Shards, Workers: 1, Tracer: tr,
		})
		if err != nil {
			return nil, err
		}
		collector.Add(fleet.NewTracerSource(asn.String(), tr, nil))
		tc := obs.NewTraceContext()
		traces[k] = tc
		pfxs := trace.Universe(2 * cfg.Shards)
		sets := make([][]*engine.Seal, 2)
		for round := range sets {
			eng.BeginEpoch(1)
			for i, pfx := range pfxs {
				ann, err := makeAnnouncement(providerSigner, gossipProvider, asn, 1, pfx, 1+i%8)
				if err != nil {
					return nil, err
				}
				if err := eng.AcceptAnnouncement(ann, tc); err != nil {
					return nil, err
				}
			}
			if sets[round], err = eng.SealEpoch(); err != nil {
				return nil, err
			}
		}
		for v, seals := range sets {
			victim := auditors[2*k+v]
			for _, s := range seals {
				rec := auditnet.Record{Epoch: s.Epoch, S: s.Statement(), Trace: s.Trace}
				if _, _, err := victim.AddRecord(rec); err != nil {
					return nil, err
				}
			}
		}
	}

	// Anti-entropy rounds until every prover is detected somewhere (or
	// MaxRounds). Statements, conflicts, and their trace metadata all
	// move over the real wire protocol.
	for r := 1; r <= cfg.MaxRounds; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.Rounds = r
		for i := 0; i < cfg.Nodes; i++ {
			for _, j := range pickPeers(rng, i, cfg.Nodes, cfg.Fanout) {
				if _, err := exchangeOnce(auditors[i], auditors[j]); err != nil {
					return nil, err
				}
			}
		}
		allDetected := true
		for k := 0; k < cfg.Provers; k++ {
			if detectRound[k] > 0 {
				continue
			}
			for _, a := range auditors {
				if a.Convicted(traceProverASN(k)) {
					detectRound[k] = r
					break
				}
			}
			if detectRound[k] == 0 {
				allDetected = false
			}
		}
		if allDetected {
			break
		}
	}

	// Collect and stitch.
	if err := collector.Poll(); err != nil {
		return nil, err
	}
	res.AllStitched, res.AllWithinBound = true, true
	for k := 0; k < cfg.Provers; k++ {
		asn := traceProverASN(k)
		ch := collector.Chain(traces[k].TraceID)
		row := TraceChain{
			Trace:       traces[k].TraceID.String(),
			Prover:      uint32(asn),
			DetectRound: detectRound[k],
			WithinBound: detectRound[k] > 0 && detectRound[k] <= res.Bound,
		}
		for _, a := range auditors {
			if a.Convicted(asn) {
				row.ConvictedNodes++
			}
		}
		if ch != nil {
			row.Spans = len(ch.Spans)
			row.Participants = len(ch.Participants())
			row.Stitched = ch.Stitched() &&
				ch.HasKind(obs.EvAnnounceAccepted) && ch.HasKind(obs.EvShardSealed) &&
				ch.HasKind(obs.EvSealGossiped) && ch.HasKind(obs.EvConvictionRecorded)
		}
		if !row.Stitched {
			res.AllStitched = false
		}
		if !row.WithinBound {
			res.AllWithinBound = false
		}
		res.Chains = append(res.Chains, row)
	}
	res.Fleet = collector.Stats()
	res.FleetConvictions = collector.MetricTotal("pvr_audit_convictions_total")
	if res.Fleet.Stitched == 0 && cfg.Provers > 0 {
		return nil, fmt.Errorf("netsim: trace run stitched no chains across %d participants", res.Fleet.Participants)
	}
	return res, nil
}
