package main

import (
	"context"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	mrand "math/rand"
	"net/netip"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"pvr/internal/aspath"
	"pvr/internal/commit"
	"pvr/internal/core"
	"pvr/internal/engine"
	"pvr/internal/merkle"
	"pvr/internal/netsim"
	"pvr/internal/obs"
	"pvr/internal/prefix"
	"pvr/internal/rfg"
	"pvr/internal/ringsig"
	"pvr/internal/route"
	"pvr/internal/sigs"
	"pvr/internal/smc"
	"pvr/internal/topology"
	"pvr/internal/trace"
	"pvr/internal/zkp"
)

func header(id, title string) {
	fmt.Printf("== %s — %s ==\n", id, title)
}

// timeIt runs fn n times and returns the mean duration.
func timeIt(n int, fn func() error) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(n), nil
}

// --- shared mini-PKI ---

type pki struct {
	reg     *sigs.Registry
	signers map[aspath.ASN]sigs.Signer
	pfx     prefix.Prefix
}

func newPKI(n int) (*pki, error) {
	p := &pki{
		reg:     sigs.NewRegistry(),
		signers: map[aspath.ASN]sigs.Signer{},
		pfx:     prefix.MustParse("203.0.113.0/24"),
	}
	for asn := aspath.ASN(100); asn < aspath.ASN(100+n); asn++ {
		s, err := sigs.GenerateEd25519()
		if err != nil {
			return nil, err
		}
		p.signers[asn] = s
		p.reg.Register(asn, s.Public())
	}
	return p, nil
}

func (p *pki) announce(from aspath.ASN, epoch uint64, length int) (core.Announcement, error) {
	asns := make([]aspath.ASN, length)
	asns[0] = from
	for i := 1; i < length; i++ {
		asns[i] = aspath.ASN(65000 + i)
	}
	r := route.Route{
		Prefix:  p.pfx,
		Path:    aspath.New(asns...),
		NextHop: netip.AddrFrom4([4]byte{10, 0, 0, 1}),
	}
	return core.NewAnnouncement(p.signers[from], from, 100, epoch, r)
}

// minEpoch runs one full §3.3 epoch for k providers, returning disclosure
// sizes for the table.
func (p *pki) minEpoch(k, maxLen int, epoch uint64) (provBytes, promBytes int, err error) {
	prover, err := core.NewProver(100, p.signers[100], p.reg, maxLen)
	if err != nil {
		return 0, 0, err
	}
	prover.BeginEpoch(epoch, p.pfx)
	anns := make([]core.Announcement, k)
	for i := 0; i < k; i++ {
		anns[i], err = p.announce(aspath.ASN(101+i), epoch, 1+(i%maxLen))
		if err != nil {
			return 0, 0, err
		}
		if _, err := prover.AcceptAnnouncement(anns[i]); err != nil {
			return 0, 0, err
		}
	}
	mc, err := prover.CommitMin()
	if err != nil {
		return 0, 0, err
	}
	for i := 0; i < k; i++ {
		v, err := prover.DiscloseToProvider(aspath.ASN(101 + i))
		if err != nil {
			return 0, 0, err
		}
		if err := core.VerifyProviderView(p.reg, v, anns[i]); err != nil {
			return 0, 0, err
		}
		ob, _ := v.Opening.MarshalBinary()
		provBytes = len(ob)
	}
	pv, err := prover.DiscloseToPromisee(199)
	if err != nil {
		return 0, 0, err
	}
	if err := core.VerifyPromiseeView(p.reg, pv); err != nil {
		return 0, 0, err
	}
	for _, op := range pv.Openings {
		ob, _ := op.MarshalBinary()
		promBytes += len(ob)
	}
	promBytes += len(mc.Commitments) * 32
	return provBytes, promBytes, nil
}

// E1 — Fig. 1: full minimum-operator protocol vs provider count.
func runFig1(seed int64) error {
	header("E1 (Fig. 1)", "minimum-operator protocol, one epoch, all parties verify")
	pk, err := newPKI(100)
	if err != nil {
		return err
	}
	fmt.Printf("%6s %12s %16s %16s\n", "k", "epoch time", "Ni view bytes", "B view bytes")
	epoch := uint64(1)
	for _, k := range []int{2, 5, 10, 20, 50} {
		var pb, bb int
		d, err := timeIt(20, func() error {
			epoch++
			var err error
			pb, bb, err = pk.minEpoch(k, 32, epoch)
			return err
		})
		if err != nil {
			return err
		}
		fmt.Printf("%6d %12s %16d %16d\n", k, d.Round(time.Microsecond), pb, bb)
	}
	return nil
}

// E2 — Fig. 2: graph commitment and selective disclosure.
func runFig2(seed int64) error {
	header("E2 (Fig. 2)", "route-flow graph commit + disclose + verify")
	pk, err := newPKI(100)
	if err != nil {
		return err
	}
	fmt.Printf("%6s %10s %12s %14s %14s\n", "k", "vertices", "commit time", "disclose time", "proof bytes")
	for _, k := range []int{3, 5, 10, 20} {
		g, ins, outVar, err := rfg.Fig2(k)
		if err != nil {
			return err
		}
		access := rfg.NewAccess()
		access.AllowAll(199, outVar.Label())
		a1, err := pk.announce(101, 1, 4)
		if err != nil {
			return err
		}
		a2, err := pk.announce(102, 1, 2)
		if err != nil {
			return err
		}
		inputs := map[rfg.VarID][]route.Route{ins[0]: {a1.Route}, ins[1]: {a2.Route}}

		var gc *core.GraphCommitment
		var gp *core.GraphProver
		epoch := uint64(0)
		commitD, err := timeIt(10, func() error {
			epoch++
			gp = core.NewGraphProver(100, pk.signers[100], g, access)
			var err error
			gc, err = gp.Commit(epoch, inputs)
			return err
		})
		if err != nil {
			return err
		}
		var proofBytes int
		discD, err := timeIt(10, func() error {
			d, err := gp.Disclose(199, outVar.Label())
			if err != nil {
				return err
			}
			if _, err := core.VerifyVertexDisclosure(pk.reg, gc, d); err != nil {
				return err
			}
			pb, _ := d.Proof.MarshalBinary()
			proofBytes = len(pb)
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Printf("%6d %10d %12s %14s %14d\n",
			k, len(g.Vars())+len(g.Ops()), commitD.Round(time.Microsecond),
			discD.Round(time.Microsecond), proofBytes)
	}
	return nil
}

// E3 — SMC strawman vs PVR on the same minimum task.
func runSMC(seed int64) error {
	header("E3 (§3.1)", "SMC strawman vs PVR (same minimum task)")
	pk, err := newPKI(100)
	if err != nil {
		return err
	}
	fmt.Printf("%6s %14s %16s %18s %12s\n", "k", "PVR epoch", "live SMC", "FairplayMP model", "PVR speedup")
	epoch := uint64(1000)
	for _, k := range []int{2, 5, 10} {
		epoch++
		pvrD, err := timeIt(10, func() error {
			epoch++
			_, _, err := pk.minEpoch(k, 32, epoch)
			return err
		})
		if err != nil {
			return err
		}
		parties := make([]*smc.Party, k)
		for i := range parties {
			parties[i], err = smc.NewParty(i, 1+i%smc.Domain, 1024)
			if err != nil {
				return err
			}
		}
		smcD, err := timeIt(3, func() error {
			_, _, _, err := smc.SecureMin(parties)
			return err
		})
		if err != nil {
			return err
		}
		model := smc.FairplayModelSeconds(k, 1)
		fmt.Printf("%6d %14s %16s %17.1fs %11.0fx\n",
			k, pvrD.Round(time.Microsecond), smcD.Round(time.Microsecond),
			model, model*float64(time.Second)/float64(pvrD))
	}
	fmt.Println("  (paper's cited point: FairplayMP ≈ 15 s at 5 players; PVR is msec-scale)")
	return nil
}

// E4 — ZKP strawman scaling in policy size, against what PVR does
// instead: open the K hash commitments and check each one.
func runZKP(seed int64) error {
	header("E4 (§3.1)", "ZKP strawman: monotone-vector proof vs vector length")
	fmt.Printf("%6s %12s %12s %12s %14s %12s %10s\n", "K", "prove", "verify", "proof bytes", "PVR openings", "PVR verify", "zk/PVR")
	for _, k := range []int{8, 16, 32, 64} {
		bits := make([]bool, k)
		for i := k / 2; i < k; i++ {
			bits[i] = true
		}
		cs, os, err := zkp.CommitBits(bits)
		if err != nil {
			return err
		}
		ctx := []byte("pvrbench")
		var mp *zkp.MonotoneProof
		proveD, err := timeIt(20, func() error {
			var err error
			mp, err = zkp.ProveMonotone(cs, os, k/2+1, ctx)
			return err
		})
		if err != nil {
			return err
		}
		verifyD, err := timeIt(20, func() error {
			return zkp.VerifyMonotone(cs, mp, ctx)
		})
		if err != nil {
			return err
		}
		// PVR reveals K openings (~72 bytes each) instead, one hash each.
		bv, err := new(commit.Committer).CommitBitVector("e4", bits)
		if err != nil {
			return err
		}
		opened := bv.OpenAll()
		pvrD, err := timeIt(200, func() error {
			for i, o := range opened {
				if err := commit.Verify(bv.Commitments[i], o); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Printf("%6d %12s %12s %12d %14d %12s %9.0fx\n",
			k, proveD.Round(10*time.Microsecond), verifyD.Round(10*time.Microsecond),
			mp.Size(), k*72, pvrD.Round(100*time.Nanosecond), float64(verifyD)/float64(pvrD))
	}
	return nil
}

// E5 — primitive costs (§3.8).
func runCrypto(seed int64) error {
	header("E5 (§3.8)", "primitive costs (paper: RSA-1024 sign ≈ 2 ms on 2011 hardware)")
	msg := make([]byte, 1024)
	fmt.Printf("%-24s %12s\n", "primitive", "time/op")
	hashD, err := timeIt(10000, func() error { sha256.Sum256(msg); return nil })
	if err != nil {
		return err
	}
	fmt.Printf("%-24s %12s\n", "SHA-256 (1 KiB)", hashD)
	for _, spec := range []struct {
		name string
		gen  func() (sigs.Signer, error)
	}{
		{"RSA-1024 sign", func() (sigs.Signer, error) { return sigs.GenerateRSA(1024) }},
		{"RSA-2048 sign", func() (sigs.Signer, error) { return sigs.GenerateRSA(2048) }},
		{"Ed25519 sign", sigs.GenerateEd25519},
	} {
		s, err := spec.gen()
		if err != nil {
			return err
		}
		d, err := timeIt(50, func() error { _, err := s.Sign(msg); return err })
		if err != nil {
			return err
		}
		fmt.Printf("%-24s %12s\n", spec.name, d.Round(time.Microsecond))
		sig, err := s.Sign(msg)
		if err != nil {
			return err
		}
		v, err := timeIt(200, func() error { return s.Public().Verify(msg, sig) })
		if err != nil {
			return err
		}
		fmt.Printf("%-24s %12s\n", spec.name[:len(spec.name)-5]+" verify", v.Round(time.Microsecond))
	}
	return nil
}

// E6 — batch signing amortization (§3.8).
func runBatch(seed int64) error {
	header("E6 (§3.8)", "batch signing: per-update cost vs batch size")
	s, err := sigs.GenerateRSA(1024)
	if err != nil {
		return err
	}
	fmt.Printf("%10s %16s %16s\n", "batch", "per-update", "vs batch=1")
	var base time.Duration
	for _, batch := range []int{1, 4, 16, 64, 256, 1024} {
		msgs := make([][]byte, batch)
		for i := range msgs {
			msgs[i] = []byte(fmt.Sprintf("update-%d 203.0.113.0/24", i))
		}
		reps := 5
		total, err := timeIt(reps, func() error {
			mt, err := merkle.NewBatch(msgs)
			if err != nil {
				return err
			}
			root := mt.Root()
			if _, err := s.Sign(root[:]); err != nil {
				return err
			}
			for j := range msgs {
				if _, err := mt.Prove(j); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		perUpdate := total / time.Duration(batch)
		if batch == 1 {
			base = perUpdate
		}
		fmt.Printf("%10d %16s %15.1fx\n", batch, perUpdate.Round(time.Microsecond),
			float64(base)/float64(perUpdate))
	}
	return nil
}

// E7 — the §2.3 property matrix under injected faults.
func runProperties(seed int64) error {
	header("E7 (§2.3)", "property matrix: detection/evidence/accuracy under faults")
	fmt.Printf("%-14s %10s %20s %10s %14s\n", "fault", "detected", "detected by", "guilty", "false accus.")
	for _, f := range []netsim.Fault{netsim.FaultNone, netsim.FaultSuppress, netsim.FaultWrongExport, netsim.FaultEquivocate} {
		cfg := netsim.Fig1Config{K: 5, MaxLen: 16, Fault: f, Seed: seed}
		if f == netsim.FaultWrongExport {
			cfg.Providers = []int{7, 2, 9, 4, 11}
		}
		res, err := netsim.RunFig1(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("%-14s %10v %-28s %10d %14d\n",
			f, res.Detected, fmt.Sprintf("%v", res.DetectedBy), res.GuiltyVerdicts, res.FalseAccusations)
	}
	fmt.Println("  (confidentiality: honest-run audit in netsim tests — B's bits ≡ export)")
	return nil
}

// E8 — plain vs PVR BGP convergence on a tiered topology.
func runE2E(seed int64) error {
	header("E8", "plain vs PVR BGP propagation on synthetic tiered topologies")
	fmt.Printf("%8s %8s %8s %10s %10s %10s %12s\n",
		"ASes", "mode", "rounds", "messages", "KB", "signs", "crypto time")
	for _, size := range []struct{ t1, t2, stub int }{{3, 6, 12}, {4, 12, 40}, {5, 20, 100}} {
		g, err := topology.Tiered(size.t1, size.t2, size.stub, mrand.New(mrand.NewSource(seed)))
		if err != nil {
			return err
		}
		origin := g.Nodes()[len(g.Nodes())-1]
		for _, mode := range []struct {
			name   string
			pvr    bool
			batch  int
			engine bool
		}{{"plain", false, 0, false}, {"pvr", true, 0, false}, {"pvr+b16", true, 16, false}, {"pvr+eng", true, 16, true}} {
			res, err := netsim.RunConvergence(netsim.ConvergenceConfig{
				Graph: g, Origin: origin, Prefixes: 10,
				PVR: mode.pvr, BatchSize: mode.batch, Engine: mode.engine, Seed: seed,
			})
			if err != nil {
				return err
			}
			fmt.Printf("%8d %8s %8d %10d %10d %10d %12s\n",
				g.Len(), mode.name, res.Rounds, res.Messages, res.Bytes/1024,
				res.SignOps, res.CryptoTime.Round(time.Microsecond))
		}
	}
	return nil
}

// E10 — the sharded multi-prefix engine vs a loop of single-prefix
// provers on the same announcement table: the production-shaped workload.
// One full epoch = accept every announcement, commit every prefix, and
// verify every promisee disclosure.

type engineRow struct {
	Prefixes   int     `json:"prefixes"`
	Providers  int     `json:"providers"`
	SerialMs   float64 `json:"serial_ms"`
	EngineMs   float64 `json:"engine_ms"`
	Speedup    float64 `json:"speedup"`
	SerialSigs int     `json:"serial_commit_sigs"`
	Seals      int     `json:"engine_seals"`
	// AllocsPerOp is heap allocations per prefix across the engine's full
	// epoch (accept + seal + verify) — the benchgate regression metric.
	AllocsPerOp int64 `json:"allocs_per_op"`
	// SealP50Ms / SealP99Ms are per-shard seal latency quantiles read from
	// the engine's obs histogram (pvr_engine_shard_seal_seconds) —
	// benchgate's second regression metric.
	SealP50Ms float64 `json:"seal_p50_ms"`
	SealP99Ms float64 `json:"seal_p99_ms"`
	// CPUs records the machine the row was measured on: speedups on a
	// 1-CPU host come from batching alone, not parallelism.
	CPUs int `json:"cpus"`
}

// jsonOut, when set by -json, receives the selected experiment's rows as a
// JSON array; jsonExp records which experiment -e selected (engine owns
// the file under "all", gossip only when selected directly).
var (
	jsonOut string
	jsonExp string
	// benchPrefixes / gossipNodes, when nonzero, collapse the E10/E11
	// sweeps to a single size (CI smoke runs).
	benchPrefixes int
	gossipNodes   int
)

// benchMeta stamps every BENCH_*.json with the run's provenance, so a
// regression diff can tell "the code got slower" apart from "the machine
// or toolchain changed".
type benchMeta struct {
	Experiment string `json:"experiment"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	// Commit is the VCS revision baked into the binary ("" when built
	// outside a checkout or without VCS stamping), with "-dirty"
	// appended when the working tree had local modifications.
	Commit string `json:"commit,omitempty"`
}

func runMeta() benchMeta {
	m := benchMeta{
		Experiment: jsonExp,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev string
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" && dirty {
			rev += "-dirty"
		}
		m.Commit = rev
	}
	return m
}

func writeJSONRows(rows any) error {
	b, err := json.MarshalIndent(struct {
		Meta benchMeta `json:"meta"`
		Rows any       `json:"rows"`
	}{runMeta(), rows}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(jsonOut, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("  (wrote %s)\n", jsonOut)
	return nil
}

func runEngine(seed int64) error {
	header("E10", "sharded engine vs single-prefix prover loop (full epoch: accept+commit+verify)")
	const k = 2
	pk, err := newPKI(k + 2)
	if err != nil {
		return err
	}
	prover, promisee := aspath.ASN(100), aspath.ASN(100+k+1)
	providers := make([]aspath.ASN, k)
	for i := range providers {
		providers[i] = aspath.ASN(101 + i)
	}
	rng := mrand.New(mrand.NewSource(seed))
	fmt.Printf("%10s %12s %12s %10s %14s %10s %11s %10s %5s\n",
		"prefixes", "serial", "engine", "speedup", "commit sigs", "seals", "allocs/op", "seal p99", "cpus")

	sweep := []int{100, 500, 1000}
	if benchPrefixes > 0 {
		sweep = []int{benchPrefixes}
	}
	var rows []engineRow
	for _, nPfx := range sweep {
		const maxLen = 16
		epoch := uint64(nPfx) // distinct epochs keep commitments apart
		pfxs := trace.Universe(nPfx)
		anns := make([]core.Announcement, 0, nPfx*k)
		for i, pfx := range pfxs {
			for _, ni := range providers {
				length := 1 + (i+rng.Intn(maxLen))%maxLen
				a, err := engineAnnounce(pk, ni, prover, epoch, pfx, length)
				if err != nil {
					return err
				}
				anns = append(anns, a)
			}
		}

		// Serial baseline: one core.Prover per prefix, one commitment
		// signature each, promisee views verified one by one.
		t0 := time.Now()
		serialProvers := make(map[prefix.Prefix]*core.Prover, nPfx)
		for _, a := range anns {
			p := serialProvers[a.Route.Prefix]
			if p == nil {
				if p, err = core.NewProver(prover, pk.signers[prover], pk.reg, maxLen); err != nil {
					return err
				}
				p.BeginEpoch(epoch, a.Route.Prefix)
				serialProvers[a.Route.Prefix] = p
			}
			if _, err := p.AcceptAnnouncement(a); err != nil {
				return err
			}
		}
		serialSigs := 0
		for _, pfx := range pfxs {
			p := serialProvers[pfx]
			if _, err := p.CommitMin(); err != nil {
				return err
			}
			serialSigs++
			v, err := p.DiscloseToPromisee(promisee)
			if err != nil {
				return err
			}
			if err := core.VerifyPromiseeView(pk.reg, v); err != nil {
				return err
			}
		}
		serialD := time.Since(t0)

		// Engine: batch-verified ingest (one receipt-batch signature),
		// sealed-export commitments, batched shard seals, pipelined verify.
		var msBefore runtime.MemStats
		runtime.ReadMemStats(&msBefore)
		t0 = time.Now()
		engObs := obs.NewRegistry()
		eng, err := engine.New(engine.Config{
			ASN: prover, Signer: pk.signers[prover], Registry: pk.reg, MaxLen: maxLen,
			Promisee: promisee, Obs: engObs,
		})
		if err != nil {
			return err
		}
		eng.BeginEpoch(epoch)
		writers := runtime.GOMAXPROCS(0)
		if _, err := eng.AcceptAll(anns, writers); err != nil {
			return err
		}
		seals, err := eng.SealEpoch()
		if err != nil {
			return err
		}
		verifyEngine := func() error {
			pl := engine.NewPipeline(pk.reg, writers)
			defer pl.Close()
			for _, pfx := range pfxs {
				v, err := eng.DiscloseToPromisee(pfx, promisee)
				if err != nil {
					return err
				}
				pl.SubmitPromisee(v, promisee)
			}
			for _, r := range pl.Drain() {
				if r.Err != nil {
					return fmt.Errorf("engine verify %s: %w", r.Prefix, r.Err)
				}
			}
			return nil
		}
		if err := verifyEngine(); err != nil {
			return err
		}
		engineD := time.Since(t0)
		var msAfter runtime.MemStats
		runtime.ReadMemStats(&msAfter)
		allocsPerOp := int64(msAfter.Mallocs-msBefore.Mallocs) / int64(nPfx)

		speedup := float64(serialD) / float64(engineD)
		sealP50, _ := engObs.Quantile("pvr_engine_shard_seal_seconds", 0.50)
		sealP99, _ := engObs.Quantile("pvr_engine_shard_seal_seconds", 0.99)
		fmt.Printf("%10d %12s %12s %9.1fx %14d %10d %11d %10s %5d\n",
			nPfx, serialD.Round(time.Millisecond), engineD.Round(time.Millisecond),
			speedup, serialSigs, len(seals), allocsPerOp,
			time.Duration(sealP99*float64(time.Second)).Round(time.Microsecond), runtime.NumCPU())
		rows = append(rows, engineRow{
			Prefixes: nPfx, Providers: k,
			SerialMs: float64(serialD) / 1e6, EngineMs: float64(engineD) / 1e6,
			Speedup: speedup, SerialSigs: serialSigs, Seals: len(seals),
			AllocsPerOp: allocsPerOp,
			SealP50Ms:   sealP50 * 1e3, SealP99Ms: sealP99 * 1e3,
			CPUs: runtime.NumCPU(),
		})
	}

	// Writer-scaling view through the netsim driver.
	wsPfx := 500
	if benchPrefixes > 0 {
		wsPfx = benchPrefixes
	}
	fmt.Printf("\n%10s %12s %12s %12s\n", "writers", "accept", "seal", "verify")
	for _, writers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		res, err := netsim.RunEngineEpoch(netsim.EngineRunConfig{
			Prefixes: wsPfx, Providers: k, Writers: writers, Seed: seed,
		})
		if err != nil {
			return err
		}
		fmt.Printf("%10d %12s %12s %12s\n", writers,
			res.AcceptTime.Round(time.Millisecond), res.SealTime.Round(time.Millisecond),
			res.VerifyTime.Round(time.Millisecond))
	}

	if jsonOut != "" && jsonExp != "gossip" {
		if err := writeJSONRows(rows); err != nil {
			return err
		}
	}
	return nil
}

// E11 — the audit network: anti-entropy gossip dissemination of engine
// seals, equivocation detection latency, and reconciliation cost vs Δ.

type gossipRow struct {
	Nodes           int    `json:"nodes"`
	Fanout          int    `json:"fanout"`
	Epoch           uint64 `json:"epoch"`
	Delta           int    `json:"delta"`
	StoreBefore     int    `json:"store_before"`
	Rounds          int    `json:"rounds"`
	Bytes           int64  `json:"bytes"`
	FirstRoundBytes int64  `json:"first_round_bytes"`
	FirstDetection  int    `json:"first_detection"`
	FullDetection   int    `json:"full_detection"`
	DetectionBound  int    `json:"detection_bound"`
}

func runGossip(seed int64) error {
	header("E11 (§3.2/§3.6)", "anti-entropy audit gossip: detection latency + reconciliation bytes vs Δ")
	sizes := []int{10, 20, 40}
	if gossipNodes > 0 {
		sizes = []int{gossipNodes}
	}
	const epochs = 4
	fmt.Printf("%6s %7s %14s %7s %10s %12s %12s %10s\n",
		"nodes", "fanout", "detect(f/all)", "bound", "rounds", "epoch1 B", "epoch4 B", "store")
	var rows []gossipRow
	for _, n := range sizes {
		for _, fanout := range []int{1, 2, 3} {
			if fanout > n-1 {
				continue
			}
			res, err := netsim.RunGossip(context.Background(), netsim.GossipConfig{
				Nodes: n, Fanout: fanout, Epochs: epochs, Equivocate: true, Seed: seed,
			})
			if err != nil {
				return err
			}
			totalRounds := 0
			for _, es := range res.EpochStats {
				totalRounds += es.Rounds
			}
			first := res.EpochStats[0]
			last := res.EpochStats[len(res.EpochStats)-1]
			fmt.Printf("%6d %7d %9d/%-4d %7d %10d %12d %12d %10d\n",
				n, fanout, res.FirstDetection, res.FullDetection,
				netsim.DetectionBound(n), totalRounds, first.Bytes, last.Bytes, res.StoreFinal)
			for _, es := range res.EpochStats {
				rows = append(rows, gossipRow{
					Nodes: n, Fanout: fanout, Epoch: es.Epoch, Delta: es.Delta,
					StoreBefore: es.StoreBefore, Rounds: es.Rounds, Bytes: es.Bytes,
					FirstRoundBytes: es.FirstRoundBytes,
					FirstDetection:  res.FirstDetection, FullDetection: res.FullDetection,
					DetectionBound: netsim.DetectionBound(n),
				})
			}
		}
	}
	fmt.Println("  (per-epoch JSON rows show bytes tracking delta, not store_before)")
	if jsonOut != "" && jsonExp == "gossip" {
		if err := writeJSONRows(rows); err != nil {
			return err
		}
	}
	return nil
}

func engineAnnounce(pk *pki, from, to aspath.ASN, epoch uint64, pfx prefix.Prefix, length int) (core.Announcement, error) {
	asns := make([]aspath.ASN, length)
	asns[0] = from
	for i := 1; i < length; i++ {
		asns[i] = aspath.ASN(65000 + i)
	}
	r := route.Route{
		Prefix:  pfx,
		Path:    aspath.New(asns...),
		NextHop: netip.AddrFrom4([4]byte{10, 0, 0, 1}),
	}
	return core.NewAnnouncement(pk.signers[from], from, to, epoch, r)
}

// E9 — ring signatures (§3.2 link-state variant).
func runRing(seed int64) error {
	header("E9 (§3.2)", "ring signatures: \"a route exists\" without identifying the signer")
	fmt.Printf("%8s %12s %12s %12s\n", "ring", "sign", "verify", "sig bytes")
	keys := make([]*rsa.PrivateKey, 16)
	for i := range keys {
		k, err := rsa.GenerateKey(rand.Reader, 1024)
		if err != nil {
			return err
		}
		keys[i] = k
	}
	msg := []byte("a route exists")
	for _, n := range []int{2, 4, 8, 16} {
		pubs := make([]*rsa.PublicKey, n)
		for i := 0; i < n; i++ {
			pubs[i] = &keys[i].PublicKey
		}
		ring, err := ringsig.NewRing(pubs)
		if err != nil {
			return err
		}
		var sig *ringsig.Signature
		signD, err := timeIt(10, func() error {
			var err error
			sig, err = ring.Sign(msg, keys[0])
			return err
		})
		if err != nil {
			return err
		}
		verifyD, err := timeIt(10, func() error { return ring.Verify(msg, sig) })
		if err != nil {
			return err
		}
		fmt.Printf("%8d %12s %12s %12d\n",
			n, signD.Round(time.Microsecond), verifyD.Round(time.Microsecond), ring.SignatureSize())
	}
	return nil
}
