package netsim

import (
	"errors"
	"fmt"
	"net/netip"
	"runtime"
	"time"

	"pvr/internal/aspath"
	"pvr/internal/bgp"
	"pvr/internal/core"
	"pvr/internal/engine"
	"pvr/internal/merkle"
	"pvr/internal/obs"
	"pvr/internal/route"
	"pvr/internal/sigs"
	"pvr/internal/topology"
	"pvr/internal/trace"
)

// ConvergenceConfig parameterizes a plain-vs-PVR BGP propagation run over
// a topology (experiment E8).
type ConvergenceConfig struct {
	// Graph is the AS topology (Gao-Rexford policies compiled from it).
	Graph *topology.Graph
	// Origin is the AS originating the prefixes.
	Origin aspath.ASN
	// Prefixes is the number of distinct prefixes originated.
	Prefixes int
	// Churn, when positive, additionally replays that many announce /
	// withdraw events at the origin after initial convergence.
	Churn int
	// Seed drives the churn trace.
	Seed int64
	// PVR enables per-update signing and verification (the §3.8 overhead);
	// BatchSize > 1 signs update batches through a Merkle tree instead of
	// individually.
	PVR       bool
	BatchSize int
	// Engine, with PVR, additionally runs the sharded ProverEngine at the
	// origin's first neighbor after convergence: the neighbor ingests the
	// origin's signed announcements for every prefix, seals the epoch with
	// batched shard commitments, and the promisee views are verified
	// through the parallel pipeline. Its signature and verification work
	// is added to the counters; EngineShards 0 uses the engine default.
	Engine       bool
	EngineShards int
}

// ConvergenceResult reports protocol and crypto cost.
type ConvergenceResult struct {
	Rounds      int
	Messages    int
	Bytes       int
	SignOps     int
	VerifyOps   int
	CryptoTime  time.Duration
	RoutingTime time.Duration
	// Converged is true when propagation quiesced within the round bound.
	Converged bool
	// EngineSeals and EngineVerified report the post-convergence engine
	// epoch when ConvergenceConfig.Engine is set: shard seals signed and
	// promisee disclosures verified.
	EngineSeals    int
	EngineVerified int
}

// RunConvergence floods the origin's prefixes through the topology,
// counting messages, bytes, and (when PVR is on) signature work, then
// optionally replays churn.
func RunConvergence(cfg ConvergenceConfig) (*ConvergenceResult, error) {
	if cfg.Graph == nil || cfg.Prefixes < 1 {
		return nil, errors.New("netsim: bad convergence config")
	}
	configs, err := topology.SpeakerConfigs(cfg.Graph)
	if err != nil {
		return nil, err
	}
	if _, ok := configs[cfg.Origin]; !ok {
		return nil, fmt.Errorf("netsim: origin %s not in topology", cfg.Origin)
	}
	speakers := make(map[aspath.ASN]*bgp.Speaker, len(configs))
	for asn, c := range configs {
		s, err := bgp.NewSpeaker(c)
		if err != nil {
			return nil, err
		}
		speakers[asn] = s
	}

	// One signer shared per AS; Ed25519 keeps E8 fast while preserving the
	// sign-per-update shape (the RSA cost scale is measured separately in
	// E5).
	signers := make(map[aspath.ASN]sigs.Signer, len(speakers))
	reg := sigs.NewRegistry()
	if cfg.PVR {
		for asn := range speakers {
			s, err := sigs.GenerateEd25519()
			if err != nil {
				return nil, err
			}
			signers[asn] = s
			reg.Register(asn, s.Public())
		}
	}

	res := &ConvergenceResult{}
	pump := func() error {
		for ; res.Rounds < 10000; res.Rounds++ {
			moved := false
			for _, asn := range cfg.Graph.Nodes() {
				s := speakers[asn]
				t0 := time.Now()
				pus := s.Drain()
				res.RoutingTime += time.Since(t0)
				if len(pus) == 0 {
					continue
				}
				moved = true
				// Gather this round's update bodies for signing.
				bodies := make([][]byte, len(pus))
				for i, pu := range pus {
					body, err := pu.Update.MarshalBinary()
					if err != nil {
						return err
					}
					bodies[i] = body
					res.Messages++
					res.Bytes += len(body)
				}
				// PVR: sign updates individually, or sign one Merkle root
				// for the whole round's batch (§3.8 amortization) and ship
				// each update with its audit path.
				var sigs2 [][]byte
				if cfg.PVR {
					c0 := time.Now()
					if cfg.BatchSize > 1 && len(bodies) > 1 {
						batch, err := merkle.NewBatch(bodies)
						if err != nil {
							return err
						}
						root := batch.Root()
						rootSig, err := signers[asn].Sign(root[:])
						if err != nil {
							return err
						}
						res.SignOps++
						sigs2 = make([][]byte, len(bodies))
						for i := range bodies {
							proof, err := batch.Prove(i)
							if err != nil {
								return err
							}
							pb, err := proof.MarshalBinary()
							if err != nil {
								return err
							}
							sigs2[i] = append(append([]byte(nil), rootSig...), pb...)
						}
					} else {
						sigs2 = make([][]byte, len(bodies))
						for i, body := range bodies {
							sig, err := signers[asn].Sign(body)
							if err != nil {
								return err
							}
							res.SignOps++
							sigs2[i] = sig
						}
					}
					res.CryptoTime += time.Since(c0)
				}
				for i, pu := range pus {
					if cfg.PVR {
						res.Bytes += len(sigs2[i])
					}
					dst := speakers[pu.Peer]
					if dst == nil {
						continue
					}
					if cfg.PVR && cfg.BatchSize <= 1 {
						// Receiver verifies the per-update signature.
						c0 := time.Now()
						if err := reg.Verify(asn, bodies[i], sigs2[i]); err != nil {
							return err
						}
						res.VerifyOps++
						res.CryptoTime += time.Since(c0)
					}
					t1 := time.Now()
					if err := dst.HandleUpdate(asn, pu.Update); err != nil {
						return err
					}
					res.RoutingTime += time.Since(t1)
				}
			}
			if !moved {
				res.Converged = true
				return nil
			}
		}
		return errors.New("netsim: no convergence in 10000 rounds")
	}

	// Initial flood.
	uni := trace.Universe(cfg.Prefixes)
	origin := speakers[cfg.Origin]
	for _, p := range uni {
		if err := origin.Originate(p); err != nil {
			return nil, err
		}
	}
	if err := pump(); err != nil {
		return nil, err
	}

	// Churn replay.
	if cfg.Churn > 0 {
		events, err := trace.Generate(trace.Config{
			Prefixes:      cfg.Prefixes,
			Events:        cfg.Churn,
			MeanGap:       time.Millisecond,
			BurstLen:      4,
			WithdrawRatio: 0.4,
			Seed:          cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		for _, ev := range events {
			if ev.Kind == trace.Announce {
				if err := origin.Originate(ev.Prefix); err != nil {
					return nil, err
				}
			} else {
				origin.WithdrawOrigin(ev.Prefix)
			}
			if err := pump(); err != nil {
				return nil, err
			}
		}
	}

	// Engine epoch: the origin's first neighbor proves its shortest-route
	// promise over the whole converged prefix table through the sharded
	// engine — the multi-prefix commitment workload a deployment would run
	// each epoch on top of update signing.
	if cfg.PVR && cfg.Engine {
		neighbors := cfg.Graph.Neighbors(cfg.Origin)
		if len(neighbors) == 0 {
			return nil, errors.New("netsim: origin has no neighbors for engine run")
		}
		proverAS := neighbors[0]
		eng, err := engine.New(engine.Config{
			ASN: proverAS, Signer: signers[proverAS], Registry: reg,
			Shards: cfg.EngineShards, MaxLen: 32,
		})
		if err != nil {
			return nil, err
		}
		eng.BeginEpoch(1)
		c0 := time.Now()
		for _, p := range uni {
			r := route.Route{
				Prefix:  p,
				Path:    aspath.New(cfg.Origin),
				NextHop: netip.AddrFrom4([4]byte{192, 0, 2, 1}),
			}
			ann, err := core.NewAnnouncement(signers[cfg.Origin], cfg.Origin, proverAS, 1, r)
			if err != nil {
				return nil, err
			}
			res.SignOps++ // the origin's announcement signature
			if err := eng.AcceptAnnouncement(ann, obs.TraceContext{}); err != nil {
				return nil, err
			}
			res.SignOps++   // the prover's receipt signature
			res.VerifyOps++ // the prover's announcement check
		}
		seals, err := eng.SealEpoch()
		if err != nil {
			return nil, err
		}
		res.SignOps += len(seals)
		res.EngineSeals = len(seals)
		pl := engine.NewPipeline(reg, runtime.GOMAXPROCS(0))
		defer pl.Close()
		for _, p := range uni {
			v, err := eng.DiscloseToPromisee(p, cfg.Origin)
			if err != nil {
				return nil, err
			}
			pl.SubmitPromisee(v, cfg.Origin)
		}
		for _, r := range pl.Drain() {
			if r.Err != nil {
				return nil, fmt.Errorf("netsim: engine verify %s: %w", r.Prefix, r.Err)
			}
			res.VerifyOps++
			res.EngineVerified++
		}
		res.CryptoTime += time.Since(c0)
	}
	return res, nil
}
