package netsim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"

	"pvr/internal/aspath"
	"pvr/internal/auditnet"
	"pvr/internal/engine"
	"pvr/internal/gossip"
	"pvr/internal/netx"
	"pvr/internal/obs"
	"pvr/internal/sigs"
	"pvr/internal/trace"
)

// GossipConfig parameterizes a gossip-convergence run (experiment E11):
// N audit nodes running anti-entropy rounds over in-process netx pipes,
// with an optional injected cross-shard equivocation and a stream of
// honest statements per epoch, so both detection latency and
// reconciliation cost can be measured.
type GossipConfig struct {
	// Nodes is the audit network size (default 20).
	Nodes int
	// Fanout is how many peers each node initiates an exchange with per
	// round (default 2).
	Fanout int
	// Epochs is how many statement epochs are injected; each epoch every
	// node publishes one fresh signed statement at itself, the Δ the
	// anti-entropy rounds then spread (default 1).
	Epochs int
	// MaxRounds caps the anti-entropy rounds per epoch (default
	// 4·⌈log₂ Nodes⌉ + 8).
	MaxRounds int
	// Seed drives peer selection and workloads; equal seeds replay
	// identical protocol outcomes.
	Seed int64
	// Shards is the equivocating engine's shard count (default 4).
	Shards int
	// Equivocate injects a cross-shard equivocation in epoch 1: the prover
	// seals its table twice for the same epoch and shows one seal set to
	// node 0 and the other to node 1.
	Equivocate bool
	// LedgerDir, when set, gives every node a persistent evidence ledger
	// (node-NN.ledger) that is closed, with paths reported, when the run
	// ends.
	LedgerDir string
}

// GossipEpochStats reports one epoch's reconciliation cost.
type GossipEpochStats struct {
	Epoch uint64
	// Delta is the number of new statements injected for this epoch.
	Delta int
	// StoreBefore is node 0's record count before injection: the state the
	// epoch's reconciliation traffic should NOT scale with.
	StoreBefore int
	// Rounds is how many anti-entropy rounds ran before the epoch quiesced.
	Rounds int
	// Bytes is the total wire traffic of the epoch's exchanges;
	// FirstRoundBytes is round one alone (the round that moves the Δ).
	Bytes           int64
	FirstRoundBytes int64
}

// GossipResult reports a full run.
type GossipResult struct {
	Nodes  int
	Fanout int
	// Prover is the (equivocating) AS under audit.
	Prover aspath.ASN
	// Detected is true when at least one node convicted the prover.
	Detected bool
	// FirstDetection / FullDetection are 1-based epoch-1 round indices at
	// which the first node / every node held a conviction (0 = never).
	FirstDetection int
	FullDetection  int
	// EpochStats has one entry per injected epoch.
	EpochStats []GossipEpochStats
	// TotalBytes sums all exchange traffic; StoreFinal is node 0's final
	// record count.
	TotalBytes int64
	StoreFinal int
	// LedgerPaths lists the per-node ledger files when LedgerDir was set.
	LedgerPaths []string
	// Registry is the run's PKI, exposed so callers can replay the
	// ledgers' evidence (verification needs the accused's key).
	Registry *sigs.Registry
}

func (c *GossipConfig) fill() {
	if c.Nodes <= 1 {
		c.Nodes = 20
	}
	if c.Fanout < 1 {
		c.Fanout = 2
	}
	if c.Fanout > c.Nodes-1 {
		c.Fanout = c.Nodes - 1
	}
	if c.Epochs < 1 {
		c.Epochs = 1
	}
	if c.MaxRounds < 1 {
		c.MaxRounds = 4*int(math.Ceil(math.Log2(float64(c.Nodes)))) + 8
	}
	if c.Shards < 1 {
		c.Shards = 4
	}
}

const (
	gossipProver   = aspath.ASN(64500)
	gossipProvider = aspath.ASN(64600)
)

func gossipNodeASN(i int) aspath.ASN { return aspath.ASN(1000 + i) }

// RunGossip executes one gossip-convergence run: build the PKI and
// auditors, inject the workload, and drive synchronous anti-entropy rounds
// (each node reconciles with Fanout random peers per round, over
// rendezvous pipes running the real wire protocol) until the epoch
// quiesces or MaxRounds is hit. Cancellation of ctx is observed at every
// anti-entropy round boundary, returning ctx.Err() with the run
// abandoned.
func RunGossip(ctx context.Context, cfg GossipConfig) (*GossipResult, error) {
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))

	// PKI: audit nodes, the prover under audit, and its upstream provider.
	reg := sigs.NewRegistry()
	nodeSigners := make([]sigs.Signer, cfg.Nodes)
	for i := range nodeSigners {
		s, err := sigs.GenerateEd25519()
		if err != nil {
			return nil, err
		}
		nodeSigners[i] = s
		reg.Register(gossipNodeASN(i), s.Public())
	}
	proverSigner, err := sigs.GenerateEd25519()
	if err != nil {
		return nil, err
	}
	reg.Register(gossipProver, proverSigner.Public())
	providerSigner, err := sigs.GenerateEd25519()
	if err != nil {
		return nil, err
	}
	reg.Register(gossipProvider, providerSigner.Public())

	res := &GossipResult{Nodes: cfg.Nodes, Fanout: cfg.Fanout, Prover: gossipProver, Registry: reg}

	auditors := make([]*auditnet.Auditor, cfg.Nodes)
	ledgers := make([]*auditnet.Ledger, cfg.Nodes)
	for i := range auditors {
		acfg := auditnet.Config{ASN: gossipNodeASN(i), Registry: reg}
		if cfg.LedgerDir != "" {
			path := filepath.Join(cfg.LedgerDir, fmt.Sprintf("node-%02d.ledger", i))
			led, recs, err := auditnet.OpenLedger(path)
			if err != nil {
				return nil, err
			}
			ledgers[i] = led
			acfg.Ledger, acfg.Replay = led, recs
			res.LedgerPaths = append(res.LedgerPaths, path)
		}
		if auditors[i], err = auditnet.New(acfg); err != nil {
			return nil, err
		}
	}
	defer func() {
		for _, led := range ledgers {
			if led != nil {
				led.Close()
			}
		}
	}()

	// The injected equivocation: the prover seals its prefix table twice
	// for epoch 1 (fresh commitment blinding makes the shard roots differ)
	// and shows one seal set to node 0 and the other to node 1 — the
	// cross-shard analogue of telling different neighbors different things.
	if cfg.Equivocate {
		sets := make([][]*engine.Seal, 2)
		eng, err := engine.New(engine.Config{
			ASN: gossipProver, Signer: proverSigner, Registry: reg,
			MaxLen: 16, Shards: cfg.Shards, Workers: 1,
		})
		if err != nil {
			return nil, err
		}
		pfxs := trace.Universe(2 * cfg.Shards)
		for round := range sets {
			eng.BeginEpoch(1)
			for i, pfx := range pfxs {
				ann, err := makeAnnouncement(providerSigner, gossipProvider, gossipProver, 1, pfx, 1+i%8)
				if err != nil {
					return nil, err
				}
				if err := eng.AcceptAnnouncement(ann, obs.TraceContext{}); err != nil {
					return nil, err
				}
			}
			if sets[round], err = eng.SealEpoch(); err != nil {
				return nil, err
			}
		}
		for victim, seals := range sets {
			for _, s := range seals {
				rec := auditnet.Record{Epoch: s.Epoch, S: s.Statement()}
				if _, _, err := auditors[victim].AddRecord(rec); err != nil {
					return nil, err
				}
			}
		}
	}

	globalRound := 0
	for e := 1; e <= cfg.Epochs; e++ {
		stats := GossipEpochStats{Epoch: uint64(e), StoreBefore: auditors[0].Store().Records()}

		// Δ injection: every node publishes one fresh signed statement.
		for i := range auditors {
			payload := make([]byte, 40)
			rng.Read(payload)
			sig, err := nodeSigners[i].Sign(payload)
			if err != nil {
				return nil, err
			}
			rec := auditnet.Record{Epoch: uint64(e), S: gossip.Statement{
				Origin:  gossipNodeASN(i),
				Topic:   fmt.Sprintf("commit/%d", e),
				Payload: payload,
				Sig:     sig,
			}}
			if _, _, err := auditors[i].AddRecord(rec); err != nil {
				return nil, err
			}
			stats.Delta++
		}
		if cfg.Equivocate && e == 1 {
			stats.Delta += 2 * cfg.Shards
		}

		for r := 1; r <= cfg.MaxRounds; r++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			globalRound++
			var roundBytes int64
			allInSync := true
			for i := 0; i < cfg.Nodes; i++ {
				for _, j := range pickPeers(rng, i, cfg.Nodes, cfg.Fanout) {
					st, err := exchangeOnce(auditors[i], auditors[j])
					if err != nil {
						return nil, err
					}
					roundBytes += st.Bytes()
					if !st.InSync {
						allInSync = false
					}
				}
			}
			stats.Rounds = r
			stats.Bytes += roundBytes
			if r == 1 {
				stats.FirstRoundBytes = roundBytes
			}

			if cfg.Equivocate && e == 1 {
				convicted := 0
				for _, a := range auditors {
					if a.Convicted(gossipProver) {
						convicted++
					}
				}
				if convicted > 0 && res.FirstDetection == 0 {
					res.FirstDetection = r
				}
				if convicted == cfg.Nodes && res.FullDetection == 0 {
					res.FullDetection = r
				}
			}

			if allInSync && (!cfg.Equivocate || e != 1 || res.FullDetection > 0) {
				break
			}
		}
		res.EpochStats = append(res.EpochStats, stats)
		res.TotalBytes += stats.Bytes
	}

	res.Detected = res.FirstDetection > 0
	res.StoreFinal = auditors[0].Store().Records()
	return res, nil
}

// DetectionBound is the expected worst-case detection latency for a
// gossip network in which every node is reachable: push-pull anti-entropy
// spreads information to the whole network in ~log₂ n rounds, plus slack
// for the conflicting statements to first meet and for the evidence to
// start spreading.
func DetectionBound(nodes int) int {
	return int(math.Ceil(math.Log2(float64(nodes)))) + 2
}

// pickPeers draws fanout distinct peers for node i.
func pickPeers(rng *rand.Rand, i, n, fanout int) []int {
	out := make([]int, 0, fanout)
	seen := map[int]bool{i: true}
	for len(out) < fanout {
		j := rng.Intn(n)
		if seen[j] {
			continue
		}
		seen[j] = true
		out = append(out, j)
	}
	return out
}

// exchangeOnce runs one anti-entropy exchange between two auditors over an
// in-process rendezvous pipe — the same code path cmd/pvrd runs over TCP.
func exchangeOnce(initiator, responder *auditnet.Auditor) (*auditnet.Stats, error) {
	ca, cb := netx.Pipe()
	defer ca.Close()
	defer cb.Close()
	done := make(chan struct{})
	var rerr error
	go func() {
		defer close(done)
		_, rerr = responder.Respond(cb)
	}()
	st, ierr := initiator.Reconcile(ca)
	<-done
	if ierr != nil {
		return st, fmt.Errorf("netsim: gossip initiator: %w", ierr)
	}
	if rerr != nil && !errors.Is(rerr, netx.ErrClosed) {
		return st, fmt.Errorf("netsim: gossip responder: %w", rerr)
	}
	return st, nil
}
