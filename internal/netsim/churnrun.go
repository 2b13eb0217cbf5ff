package netsim

import (
	"context"
	"fmt"
	"math/rand"
	"pvr/internal/core"
	"pvr/internal/prefix"
	"runtime"
	"sort"
	"time"

	"pvr/internal/aspath"
	"pvr/internal/auditnet"
	"pvr/internal/engine"
	"pvr/internal/merkle"
	"pvr/internal/sigs"
	"pvr/internal/trace"
	"pvr/internal/updplane"
)

// ChurnConfig parameterizes a streaming-churn run (experiment E12): a
// prover AS whose table is under continuous announce/withdraw churn,
// driven through the update plane in fixed-size commitment windows, with
// an audit network gossiping each window's seals. The run is
// seed-deterministic at the protocol level (dirty sets, shard roots,
// convictions); only the timing fields of the result vary.
type ChurnConfig struct {
	// Prefixes is the table size (default 512).
	Prefixes int
	// Providers is the number of announcing neighbors (default 2).
	Providers int
	// Events is the total churn event count after the initial table build
	// (default 4 * WindowEvents).
	Events int
	// WindowEvents is the number of churn events batched per commitment
	// window (default 64).
	WindowEvents int
	// WithdrawRatio is the trace generator's withdrawal fraction
	// (default 0.2).
	WithdrawRatio float64
	// Shards is the engine shard count (default 8); Workers the plane's
	// rebuild pool (default GOMAXPROCS).
	Shards  int
	Workers int
	// MaxLen is K, the committed vector length (default 16).
	MaxLen int
	// Seed drives the trace and all random choices.
	Seed int64
	// MeasureFull, when set, also times the full re-seal baseline every
	// window: re-ingesting the entire current table into a fresh engine
	// epoch and calling SealEpoch — what a prover without dirty tracking
	// must do under churn.
	MeasureFull bool
	// Equivocate injects a mid-churn equivocation: at the middle window
	// the prover signs a second, conflicting seal for one shard of that
	// window and shows it to a different audit node.
	Equivocate bool
	// Nodes is the audit-network size (default 8 when Equivocate, else 0 =
	// no audit network); Fanout and RoundsPerWindow shape the anti-entropy
	// schedule (defaults 2 and 2).
	Nodes           int
	Fanout          int
	RoundsPerWindow int
}

// ChurnWindowStats reports one commitment window.
type ChurnWindowStats struct {
	Window        uint64
	Events        int
	DirtyPrefixes int
	Removed       int
	// RebuiltShards lists shards whose Merkle batch was rebuilt; the
	// engine's other shards were re-signed only.
	RebuiltShards []uint32
	ApplyLatency  time.Duration
	SealLatency   time.Duration
	// FullReseal is the re-ingest + SealEpoch baseline for the same table
	// (MeasureFull only).
	FullReseal time.Duration
}

// ChurnResult reports a full streaming run.
type ChurnResult struct {
	Prefixes    int
	Events      int
	TotalShards int
	Windows     []ChurnWindowStats
	// RebuiltShardSeals / ReusedShardSeals sum the per-window outcomes
	// over the churn phase (the initial table-build window excluded).
	RebuiltShardSeals int
	ReusedShardSeals  int
	// DirtyMatchedPrediction is false if any window rebuilt a shard that
	// held no dirty prefix, or skipped one that did.
	DirtyMatchedPrediction bool
	// CleanRootsStable is false if any window changed the root of a shard
	// it did not rebuild.
	CleanRootsStable bool
	// UpdatesPerSec is churn throughput: events / (apply + seal) time.
	UpdatesPerSec float64
	// MeanDirtySeal / MeanFullReseal / Speedup compare incremental
	// re-sealing against the full baseline (MeasureFull only).
	MeanDirtySeal  time.Duration
	MeanFullReseal time.Duration
	Speedup        float64
	// Detected / DetectionWindow report the injected equivocation: the
	// 1-based churn window at which the first audit node convicted the
	// prover (0 = never).
	Detected        bool
	DetectionWindow int
	// ConvictedNodes is how many audit nodes held the conviction when the
	// run ended.
	ConvictedNodes int
	// FinalTableSize is the Loc-RIB size after the last window.
	FinalTableSize int
}

func (c *ChurnConfig) fill() {
	if c.Prefixes <= 0 {
		c.Prefixes = 512
	}
	if c.Providers <= 0 {
		c.Providers = 2
	}
	if c.WindowEvents <= 0 {
		c.WindowEvents = 64
	}
	if c.Events <= 0 {
		c.Events = 4 * c.WindowEvents
	}
	if c.WithdrawRatio == 0 {
		c.WithdrawRatio = 0.2
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxLen <= 0 {
		c.MaxLen = 16
	}
	if c.Equivocate && c.Nodes <= 1 {
		c.Nodes = 8
	}
	if c.Fanout <= 0 {
		c.Fanout = 2
	}
	if c.Nodes > 1 && c.Fanout > c.Nodes-1 {
		c.Fanout = c.Nodes - 1
	}
	if c.RoundsPerWindow <= 0 {
		c.RoundsPerWindow = 2
	}
}

const churnProver = aspath.ASN(64500)

func churnProvider(i int) aspath.ASN { return aspath.ASN(64600 + i) }

// RunChurn executes one streaming-churn run: build the PKI, the engine,
// and the update plane; push the initial table through as window 1; then
// replay a trace.Generate churn stream in fixed-size windows, checking
// the dirty-shard invariants, optionally timing the full-reseal baseline,
// and gossiping each window's seals through an audit network in which an
// injected mid-churn equivocation must still convict. Cancellation of
// ctx is observed at every window boundary, returning ctx.Err() with the
// run abandoned.
func RunChurn(ctx context.Context, cfg ChurnConfig) (*ChurnResult, error) {
	cfg.fill()
	if cfg.WindowEvents > cfg.Events {
		cfg.WindowEvents = cfg.Events
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// PKI: the prover, its providers, and the audit nodes.
	reg := sigs.NewRegistry()
	proverSigner, err := sigs.GenerateEd25519()
	if err != nil {
		return nil, err
	}
	reg.Register(churnProver, proverSigner.Public())
	provSigners := make([]sigs.Signer, cfg.Providers)
	for i := range provSigners {
		if provSigners[i], err = sigs.GenerateEd25519(); err != nil {
			return nil, err
		}
		reg.Register(churnProvider(i), provSigners[i].Public())
	}
	auditors := make([]*auditnet.Auditor, cfg.Nodes)
	for i := range auditors {
		s, err := sigs.GenerateEd25519()
		if err != nil {
			return nil, err
		}
		reg.Register(gossipNodeASN(i), s.Public())
		if auditors[i], err = auditnet.New(auditnet.Config{ASN: gossipNodeASN(i), Registry: reg}); err != nil {
			return nil, err
		}
	}

	eng, err := engine.New(engine.Config{
		ASN: churnProver, Signer: proverSigner, Registry: reg,
		MaxLen: cfg.MaxLen, Shards: cfg.Shards, Workers: cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	eng.BeginEpoch(1)
	// Manual windows: no timer, and MaxBatch above anything a window can
	// batch, so Flush is the only seal trigger and window numbers line up
	// with the driver's schedule.
	plane, err := updplane.New(updplane.Config{
		Engine: eng, Workers: cfg.Workers,
		QueueSize: cfg.WindowEvents + cfg.Providers*cfg.Prefixes,
		MaxBatch:  cfg.WindowEvents + cfg.Providers*cfg.Prefixes + 1,
	})
	if err != nil {
		return nil, err
	}
	defer plane.Close()

	res := &ChurnResult{
		Prefixes: cfg.Prefixes, Events: cfg.Events, TotalShards: cfg.Shards,
		DirtyMatchedPrediction: true, CleanRootsStable: true,
	}

	// mirror tracks the current announcement table — per prefix index, the
	// path length each provider currently announces. The full-reseal
	// baseline re-ingests it, and announce events draw fresh lengths so
	// routes actually change.
	uni := trace.Universe(cfg.Prefixes)
	mirror := make(map[int]map[int]int, cfg.Prefixes) // pfx idx -> provider -> length

	announceEv := func(pfxIdx, provider, length int) (updplane.Event, error) {
		a, err := makeAnnouncement(provSigners[provider], churnProvider(provider),
			churnProver, 1, uni[pfxIdx], length)
		if err != nil {
			return updplane.Event{}, err
		}
		return updplane.AnnounceEvent(churnProvider(provider), a), nil
	}

	// Initial table: every provider announces every prefix; window 1.
	dirtyPer := make(map[uint64]map[uint32]bool) // window -> dirty shard prediction
	predict := func(window uint64, pfxIdx int) {
		m := dirtyPer[window]
		if m == nil {
			m = make(map[uint32]bool)
			dirtyPer[window] = m
		}
		sh, _ := engine.ShardIndexFor(uni[pfxIdx], uint32(cfg.Shards))
		m[sh] = true
	}
	for i := 0; i < cfg.Prefixes; i++ {
		mirror[i] = make(map[int]int, cfg.Providers)
		for pr := 0; pr < cfg.Providers; pr++ {
			length := 1 + rng.Intn(cfg.MaxLen)
			mirror[i][pr] = length
			ev, err := announceEv(i, pr, length)
			if err != nil {
				return nil, err
			}
			if err := plane.Submit(ev); err != nil {
				return nil, err
			}
		}
	}
	w0, err := plane.Flush()
	if err != nil {
		return nil, err
	}
	res.Windows = append(res.Windows, windowStats(w0))
	prevRoots := rootsOf(w0.Seals)
	publishSeals(auditors, w0.Seals, 0)

	// Churn stream.
	events, err := trace.Generate(trace.Config{
		Prefixes: cfg.Prefixes, Events: cfg.Events,
		MeanGap: time.Millisecond, BurstLen: 4,
		WithdrawRatio: cfg.WithdrawRatio, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	pfxIdx := make(map[string]int, len(uni))
	for i, p := range uni {
		pfxIdx[p.String()] = i
	}

	var applyTotal, sealTotal time.Duration
	churnWindow := 0
	equivocateAt := -1
	if cfg.Equivocate {
		equivocateAt = (cfg.Events/cfg.WindowEvents + 1) / 2 // middle churn window
		if equivocateAt < 1 {
			equivocateAt = 1
		}
	}

	for off := 0; off < len(events); off += cfg.WindowEvents {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		end := off + cfg.WindowEvents
		if end > len(events) {
			end = len(events)
		}
		churnWindow++
		window := uint64(churnWindow + 1) // engine windows are 1-based; churn starts at 2
		for _, ev := range events[off:end] {
			i, ok := pfxIdx[ev.Prefix.String()]
			if !ok {
				return nil, fmt.Errorf("netsim: trace prefix %s outside universe", ev.Prefix)
			}
			predict(window, i)
			if ev.Kind == trace.Withdraw {
				// Withdraw one provider's route (a random holder, or the
				// whole prefix when only one remains).
				holders := sortedKeys(mirror[i])
				if len(holders) == 0 {
					// Trace thinks it is announced but every per-provider
					// route was withdrawn already; re-announce instead.
					length := 1 + rng.Intn(cfg.MaxLen)
					pr := rng.Intn(cfg.Providers)
					mirror[i][pr] = length
					pev, err := announceEv(i, pr, length)
					if err != nil {
						return nil, err
					}
					if err := plane.Submit(pev); err != nil {
						return nil, err
					}
					continue
				}
				pr := holders[rng.Intn(len(holders))]
				delete(mirror[i], pr)
				if err := plane.Submit(updplane.WithdrawEvent(churnProvider(pr), uni[i])); err != nil {
					return nil, err
				}
				continue
			}
			pr := rng.Intn(cfg.Providers)
			length := 1 + rng.Intn(cfg.MaxLen)
			mirror[i][pr] = length
			pev, err := announceEv(i, pr, length)
			if err != nil {
				return nil, err
			}
			if err := plane.Submit(pev); err != nil {
				return nil, err
			}
		}
		wres, err := plane.Flush()
		if err != nil {
			return nil, err
		}
		ws := windowStats(wres)

		// Invariant 1: rebuilt set == predicted dirty shard set.
		want := dirtyPer[window]
		if len(wres.Rebuilt) != len(want) {
			res.DirtyMatchedPrediction = false
		} else {
			for _, sh := range wres.Rebuilt {
				if !want[sh] {
					res.DirtyMatchedPrediction = false
				}
			}
		}
		// Invariant 2: clean shards keep their roots.
		rebuilt := make(map[uint32]bool, len(wres.Rebuilt))
		for _, sh := range wres.Rebuilt {
			rebuilt[sh] = true
		}
		for sh, root := range rootsOf(wres.Seals) {
			if !rebuilt[sh] && root != prevRoots[sh] {
				res.CleanRootsStable = false
			}
		}
		prevRoots = rootsOf(wres.Seals)
		res.RebuiltShardSeals += len(wres.Rebuilt)
		res.ReusedShardSeals += cfg.Shards - len(wres.Rebuilt)
		applyTotal += wres.ApplyLatency
		sealTotal += wres.SealLatency

		// Full-reseal baseline: what a prover without dirty tracking pays
		// for the same table state.
		if cfg.MeasureFull {
			d, err := fullReseal(cfg, reg, proverSigner, provSigners, mirror, uni)
			if err != nil {
				return nil, err
			}
			ws.FullReseal = d
		}
		res.Windows = append(res.Windows, ws)

		// Gossip the window's seals; mid-churn, inject the equivocation.
		publishSeals(auditors, wres.Seals, churnWindow%2)
		if cfg.Equivocate && churnWindow == equivocateAt && len(wres.Seals) > 0 {
			forged := *wres.Seals[0]
			forged.Root = merkle.Root{} // different content for the same topic
			if forged.Root == wres.Seals[0].Root {
				forged.Root[0] = 1
			}
			if forged.Sig, err = proverSigner.Sign(forged.SignedBytes()); err != nil {
				return nil, err
			}
			victim := 1 % len(auditors)
			if _, _, err := auditors[victim].AddRecord(auditnet.Record{
				Epoch: forged.Epoch, S: forged.Statement(),
			}); err != nil {
				return nil, err
			}
		}
		if len(auditors) > 1 {
			for r := 0; r < cfg.RoundsPerWindow; r++ {
				for i := range auditors {
					for _, j := range pickPeers(rng, i, len(auditors), cfg.Fanout) {
						if _, err := exchangeOnce(auditors[i], auditors[j]); err != nil {
							return nil, err
						}
					}
				}
			}
			if cfg.Equivocate && res.DetectionWindow == 0 {
				for _, a := range auditors {
					if a.Convicted(churnProver) {
						res.DetectionWindow = churnWindow
						break
					}
				}
			}
		}
	}

	// Let the evidence finish spreading after churn ends.
	if cfg.Equivocate && len(auditors) > 1 {
		for r := 0; r < 4*DetectionBound(len(auditors)); r++ {
			all := true
			for _, a := range auditors {
				if !a.Convicted(churnProver) {
					all = false
				}
			}
			if all {
				break
			}
			for i := range auditors {
				for _, j := range pickPeers(rng, i, len(auditors), cfg.Fanout) {
					if _, err := exchangeOnce(auditors[i], auditors[j]); err != nil {
						return nil, err
					}
				}
			}
		}
		for _, a := range auditors {
			if a.Convicted(churnProver) {
				res.ConvictedNodes++
			}
		}
		res.Detected = res.ConvictedNodes > 0
	}

	if total := applyTotal + sealTotal; total > 0 {
		res.UpdatesPerSec = float64(cfg.Events) / total.Seconds()
	}
	if cfg.MeasureFull {
		var dirtySum, fullSum time.Duration
		n := 0
		for _, w := range res.Windows[1:] {
			dirtySum += w.ApplyLatency + w.SealLatency
			fullSum += w.FullReseal
			n++
		}
		if n > 0 {
			res.MeanDirtySeal = dirtySum / time.Duration(n)
			res.MeanFullReseal = fullSum / time.Duration(n)
			if res.MeanDirtySeal > 0 {
				res.Speedup = float64(res.MeanFullReseal) / float64(res.MeanDirtySeal)
			}
		}
	}
	res.FinalTableSize = plane.InstalledPrefixes()
	return res, nil
}

// fullReseal times the no-dirty-tracking baseline: a fresh engine epoch
// fed the entire current table, sealed with SealEpoch. Announcement
// construction (provider-side signing) is excluded from the timed
// section — both paths consume already-signed announcements.
func fullReseal(cfg ChurnConfig, reg *sigs.Registry, proverSigner sigs.Signer,
	provSigners []sigs.Signer, mirror map[int]map[int]int, uni []prefix.Prefix) (time.Duration, error) {
	anns := make([]core.Announcement, 0, len(mirror)*cfg.Providers)
	for i, provs := range mirror {
		for pr, length := range provs {
			a, err := makeAnnouncement(provSigners[pr], churnProvider(pr),
				churnProver, 1, uni[i], length)
			if err != nil {
				return 0, err
			}
			anns = append(anns, a)
		}
	}
	t0 := time.Now()
	eng, err := engine.New(engine.Config{
		ASN: churnProver, Signer: proverSigner, Registry: reg,
		MaxLen: cfg.MaxLen, Shards: cfg.Shards, Workers: cfg.Workers,
	})
	if err != nil {
		return 0, err
	}
	eng.BeginEpoch(1)
	if _, err := eng.AcceptAll(anns, cfg.Workers); err != nil {
		return 0, err
	}
	if _, err := eng.SealEpoch(); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

func windowStats(w updplane.WindowResult) ChurnWindowStats {
	return ChurnWindowStats{
		Window:        w.Window,
		Events:        w.Events,
		DirtyPrefixes: w.DirtyPrefixes,
		Removed:       w.Removed,
		RebuiltShards: w.Rebuilt,
		ApplyLatency:  w.ApplyLatency,
		SealLatency:   w.SealLatency,
	}
}

func rootsOf(seals []*engine.Seal) map[uint32]merkle.Root {
	out := make(map[uint32]merkle.Root, len(seals))
	for _, s := range seals {
		out[s.Shard] = s.Root
	}
	return out
}

// publishSeals hands a window's seal statements to one audit node (the
// prover's gossip neighbor for that window); anti-entropy spreads them.
func publishSeals(auditors []*auditnet.Auditor, seals []*engine.Seal, victim int) {
	if len(auditors) == 0 {
		return
	}
	a := auditors[victim%len(auditors)]
	for _, s := range seals {
		_, _, _ = a.AddRecord(auditnet.Record{Epoch: s.Epoch, S: s.Statement()})
	}
}

func sortedKeys(m map[int]int) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
