// Package engine scales the §3.3 prover from one (prefix, epoch) to the
// full table of an AS. A real AS proves promises for hundreds of thousands
// of prefixes per epoch; constructing a core.Prover per prefix and signing
// each commitment individually serializes on the signer and wastes the
// paper's own §3.8 observation that signatures batch.
//
// ProverEngine owns N hash-sharded shards of per-prefix prover state.
// Announcements for different prefixes proceed concurrently (a shard-local
// mutex is the only contention point); SealEpoch commits every shard in
// parallel, building one Merkle batch per shard over the canonical
// commitment bytes and signing only the root — S signatures per epoch
// instead of one per prefix. Disclosures carry the commitment, its
// inclusion proof, and the shard seal; verification runs through the
// channel-fed worker Pipeline with a per-registry verification-key cache.
package engine

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"pvr/internal/aspath"
	"pvr/internal/commit"
	"pvr/internal/core"
	"pvr/internal/merkle"
	"pvr/internal/obs"
	"pvr/internal/prefix"
	"pvr/internal/route"
	"pvr/internal/sigs"
	"pvr/internal/zkp"
)

// exportCommitTag domain-separates the hiding commitments that bind a
// prefix's export statement into its sealed shard leaf.
const exportCommitTag = "pvr/sealed-export/v1"

// Config parameterizes a ProverEngine.
type Config struct {
	// ASN is the proving AS (network A).
	ASN aspath.ASN
	// Signer signs receipts, seals, and export statements.
	Signer sigs.Signer
	// Registry resolves neighbor keys for announcement verification.
	Registry *sigs.Registry
	// MaxLen is K, the committed bit-vector length (default 32).
	MaxLen int
	// Shards is the shard count (default GOMAXPROCS, min 1).
	Shards int
	// Workers is the verification pipeline width used by NewPipeline when
	// callers do not override it (default GOMAXPROCS).
	Workers int
	// Promisee, when nonzero, is B — the promisee of the promise this
	// engine proves. Each sealed shard leaf then also binds a hiding
	// commitment to the prefix's export statement addressed to B, and
	// DiscloseToPromisee reveals the commitment's opening instead of
	// signing a fresh export per prefix: the per-prefix export signature
	// (and its verification at B) folds into the one shard-seal
	// signature. Zero keeps the classic sign-per-export behavior.
	Promisee aspath.ASN
	// ZKBind, when true, additionally binds a Pedersen commitment vector
	// over the prefix's committed bits into each sealed shard leaf (as a
	// 32-byte digest after the commitment and export-commitment bytes).
	// The privacy plane (internal/privplane) then proves in zero knowledge
	// to third parties that the sealed vector is well-formed and monotone —
	// "the promise holds" — without opening any bit. Off by default: the
	// Pedersen arithmetic costs ~2K modexps per sealed prefix.
	ZKBind bool
	// Obs, when non-nil, exports the engine's metric families (accept and
	// seal latencies, batch sizes, shard rebuild counts, epoch/window/
	// prefix gauges) into the given registry. The engine observes either
	// way; a nil registry just leaves the numbers unread.
	Obs *obs.Registry
	// Tracer, when non-nil, receives lifecycle events (announce accepted,
	// shard sealed) for the /trace feed.
	Tracer *obs.Tracer
	// Memo, when non-nil, memoizes ReplacePrefix's announcement checks: a
	// flapping route announced again carries the same signed bytes, and is
	// verified once. Every check through it must be against Registry's key
	// set (see sigs.VerifyMemo.Bind).
	Memo *sigs.VerifyMemo
}

func (c *Config) fill() {
	if c.MaxLen <= 0 {
		c.MaxLen = 32
	}
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

// zkState is a prefix's Pedersen bit-vector material as bound into its
// shard leaf: per-bit commitments, their openings (the proving secrets,
// never disclosed — only Σ-protocol proofs over them leave the engine),
// and the canonical digest the leaf carries.
type zkState struct {
	cs     []zkp.Commitment
	os     []zkp.Opening
	digest [32]byte
}

// sealedExport is a prefix's export statement as bound into its shard
// leaf: the unsigned statement, the hiding commitment the leaf carries,
// and the opening revealed only to the promisee. Providers see the
// commitment alone and learn nothing about what was exported.
type sealedExport struct {
	stmt core.ExportStatement
	cm   commit.Commitment
	op   commit.Opening
}

// shard holds the per-prefix prover state for one hash slice of the table
// and its Merkle tree, kept between seals (see sealShardLocked).
type shard struct {
	mu      sync.Mutex
	provers map[prefix.Prefix]*core.Prover
	// order is the shard's prefixes in leaf order (ascending), each with
	// its cached canonical leaf bytes; a nil leaf is recomputed at the
	// next seal. put keeps it sorted by binary search.
	order []leafSlot
	// moved is the lowest leaf index whose prefix changed since the tree
	// was built (len(order) when none did): inserts and withdrawals shift
	// every later index, and the leaf hash binds the index. stale lists
	// the prefixes below moved whose leaves were replaced in place.
	moved int
	stale []prefix.Prefix
	// exports holds the sealed export material per prefix, populated
	// with its leaf when Config.Promisee is set.
	exports map[prefix.Prefix]*sealedExport
	// zk holds the Pedersen bit-vector material per prefix, populated
	// with its leaf when Config.ZKBind is set.
	zk map[prefix.Prefix]*zkState
	// trace is the distributed trace context of the announcement that most
	// recently dirtied the shard; the next seal inherits it (Seal.Trace) so
	// the sealing and gossip events downstream stitch to the ingest event.
	trace obs.TraceContext
	// Set by sealShardLocked; put clears sealed, so SealDirty rebuilds only
	// unsealed shards and merely re-signs the rest. The tree is updated in
	// place under mu, which is safe because an unsealed shard answers no
	// reader; serving the last sealed window during a seal would need a
	// copy-on-write tree.
	seal   *Seal
	batch  merkle.Batch
	sealed bool
}

// leafSlot is one prefix's place in its shard's leaf order.
type leafSlot struct {
	pfx  prefix.Prefix
	leaf []byte
}

// reset empties the shard for a new epoch.
func (s *shard) reset() {
	s.provers = make(map[prefix.Prefix]*core.Prover)
	s.exports = make(map[prefix.Prefix]*sealedExport)
	s.zk = make(map[prefix.Prefix]*zkState)
	s.order, s.moved, s.stale = nil, 0, nil
	s.trace = obs.TraceContext{}
	s.seal, s.batch, s.sealed = nil, merkle.Batch{}, false
}

// find returns pfx's leaf index, or where it would be inserted.
func (s *shard) find(pfx prefix.Prefix) (int, bool) {
	return slices.BinarySearchFunc(s.order, pfx, func(l leafSlot, p prefix.Prefix) int { return l.pfx.Compare(p) })
}

// put installs p as pfx's prover, or withdraws pfx (present) when p is
// nil, and un-seals the shard. It is the one place a prefix's leaf
// material is dropped, so the next seal rehashes exactly what changed.
func (s *shard) put(pfx prefix.Prefix, p *core.Prover, tc obs.TraceContext) {
	i, found := s.find(pfx)
	switch {
	case p == nil:
		delete(s.provers, pfx)
		s.order = slices.Delete(s.order, i, i+1)
		s.moved = min(s.moved, i)
	case !found:
		s.provers[pfx] = p
		s.order = slices.Insert(s.order, i, leafSlot{pfx: pfx})
		s.moved = min(s.moved, i)
	default:
		s.provers[pfx] = p
		s.order[i].leaf = nil
		if i < s.moved {
			s.stale = append(s.stale, pfx)
		}
	}
	delete(s.exports, pfx)
	delete(s.zk, pfx)
	s.trace, s.sealed = tc, false
}

// ProverEngine is a sharded multi-prefix prover. Methods are safe for
// concurrent use; AcceptAnnouncement calls for prefixes in different
// shards do not contend.
type ProverEngine struct {
	cfg Config
	ver *sigs.CachedVerifier
	cm  commit.Committer // nonce source for sealed-export commitments
	met *metrics
	tr  *obs.Tracer

	// annVer checks ReplacePrefix's candidates: ver, through Config.Memo
	// when one is set.
	annVer sigs.Verifier

	mu      sync.RWMutex // guards epoch transitions vs. accepts/seals
	epoch   uint64
	window  uint64 // commitment window within the epoch (see Seal.Window)
	begun   bool
	resumed bool // epoch entered via ResumeEpoch: never reuse the recovered window
	sealed  bool // a seal ran this epoch: AcceptAnnouncement and AcceptAll refuse
	shards  []*shard
}

// New builds an engine. The zero-value fields of cfg are defaulted; ASN,
// Signer, and Registry are required.
func New(cfg Config) (*ProverEngine, error) {
	if cfg.Signer == nil || cfg.Registry == nil {
		return nil, fmt.Errorf("engine: Signer and Registry are required")
	}
	cfg.fill()
	if cfg.MaxLen > core.MaxVectorLen {
		return nil, fmt.Errorf("engine: MaxLen %d exceeds core.MaxVectorLen %d", cfg.MaxLen, core.MaxVectorLen)
	}
	e := &ProverEngine{
		cfg: cfg,
		ver: sigs.NewCachedVerifier(cfg.Registry),
		met: newMetrics(cfg.Obs),
		tr:  cfg.Tracer,
	}
	e.annVer = e.ver
	if cfg.Memo != nil {
		e.annVer = cfg.Memo.Bind(e.ver)
	}
	e.shards = make([]*shard, cfg.Shards)
	for i := range e.shards {
		e.shards[i] = &shard{}
		e.shards[i].reset()
	}
	if cfg.Obs != nil {
		e.registerGauges(cfg.Obs)
	}
	return e, nil
}

// ASN returns the proving AS.
func (e *ProverEngine) ASN() aspath.ASN { return e.cfg.ASN }

// ShardCount returns the number of shards.
func (e *ProverEngine) ShardCount() int { return len(e.shards) }

// Epoch returns the current epoch number.
func (e *ProverEngine) Epoch() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.epoch
}

// Verifier returns the engine's cached verification-key view of the
// registry, for callers that verify neighbor material on the hot path.
func (e *ProverEngine) Verifier() sigs.Verifier { return e.ver }

// Window returns the current commitment window within the epoch: 0 until
// the first SealDirty, then the window number of the latest dirty seal.
func (e *ProverEngine) Window() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.window
}

// BeginEpoch starts a fresh commitment epoch, discarding all per-prefix
// state from the previous one and resetting the window sequence.
func (e *ProverEngine) BeginEpoch(epoch uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.epoch = epoch
	e.window = 0
	e.begun = true
	e.resumed = false
	e.sealed = false
	for _, s := range e.shards {
		s.mu.Lock()
		s.reset()
		s.mu.Unlock()
	}
}

// ResumeEpoch is BeginEpoch for a restarted prover: it enters epoch with
// the window sequence picked up at window — the highest window this
// participant durably recorded sealing before it went down. Per-prefix
// state is rebuilt empty (commitments re-randomize on restart, so the old
// roots cannot be reproduced anyway); what matters is that the next seal
// set publishes under window+1, never re-using a window whose roots may
// already have gossiped. Re-sealing the same topics with fresh
// commitments under a *new* window is ordinary churn; doing so under a
// recovered window would be a self-inflicted equivocation.
func (e *ProverEngine) ResumeEpoch(epoch, window uint64) {
	e.BeginEpoch(epoch)
	e.mu.Lock()
	e.window = window
	e.resumed = true
	e.mu.Unlock()
}

// ShardIndexFor maps a prefix to its shard index by FNV-1a over the
// canonical prefix encoding. The mapping is part of the protocol, not an
// implementation detail: verifiers recompute it against the seal's signed
// Shard/Shards fields, so a prover cannot place one prefix in two shards
// of a "consistent" seal set and show different commitments to different
// neighbors.
func ShardIndexFor(pfx prefix.Prefix, shards uint32) (uint32, error) {
	if shards == 0 {
		return 0, fmt.Errorf("engine: zero shard count")
	}
	pb, err := pfx.MarshalBinary()
	if err != nil {
		return 0, err
	}
	h := fnv.New32a()
	h.Write(pb)
	return h.Sum32() % shards, nil
}

func (e *ProverEngine) shardOf(pfx prefix.Prefix) (*shard, uint32, error) {
	i, err := ShardIndexFor(pfx, uint32(len(e.shards)))
	if err != nil {
		return nil, 0, err
	}
	return e.shards[i], i, nil
}

// AcceptAnnouncement verifies and records an input route for its prefix.
// It signs no receipt (AcceptAll acknowledges a burst with one
// ReceiptBatch). Concurrent calls for prefixes in different shards proceed
// in parallel. tc is the distributed trace the announcement continues; a
// zero tc mints a fresh trace. On success the prefix's shard remembers tc,
// so the next seal of that shard (and every downstream gossip/conviction
// event) stitches back to this ingestion.
func (e *ProverEngine) AcceptAnnouncement(a core.Announcement, tc obs.TraceContext) error {
	t0 := time.Now()
	if tc.IsZero() {
		tc = obs.NewTraceContext()
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if !e.begun {
		return fmt.Errorf("engine: BeginEpoch not called")
	}
	if err := e.acceptLocked(a, tc, (*core.Prover).Accept); err != nil {
		return err
	}
	e.met.accepts.Inc()
	e.met.acceptSec.ObserveSince(t0)
	e.tr.Record(obs.Event{
		Kind: obs.EvAnnounceAccepted, Epoch: e.epoch,
		Prefix: a.Route.Prefix.String(), AS: uint32(a.Provider),
	}.SetTrace(tc))
	return nil
}

// acceptLocked records a on its prefix's prover through check (Accept, or
// AcceptPreverified for a signature already checked); the caller holds
// e.mu. A prefix gets a prover only once an announcement for it passes.
func (e *ProverEngine) acceptLocked(a core.Announcement, tc obs.TraceContext, check func(*core.Prover, core.Announcement) error) error {
	if e.sealed {
		return fmt.Errorf("engine: epoch %d already sealed", e.epoch)
	}
	s, _, err := e.shardOf(a.Route.Prefix)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.provers[a.Route.Prefix]
	if !ok {
		if p, err = core.NewProver(e.cfg.ASN, e.cfg.Signer, e.ver, e.cfg.MaxLen); err != nil {
			return err
		}
		p.BeginEpoch(e.epoch, a.Route.Prefix)
	}
	if err := check(p, a); err != nil {
		return err
	}
	s.put(a.Route.Prefix, p, tc)
	return nil
}

// AcceptAll ingests a batch of announcements: every signature is checked
// in one batched Ed25519 pass (internal/sigs.BatchVerifier) rather than
// one double-scalar multiplication each, the verified announcements are
// recorded through the preverified path striped across writer goroutines
// (writers < 2 ingests serially), and the whole burst is acknowledged
// with ONE ReceiptBatch signature instead of a receipt signature per
// announcement — the §3.8 amortization applied to both sides of ingest.
// The first error encountered aborts the call.
func (e *ProverEngine) AcceptAll(anns []core.Announcement, writers int) (*core.ReceiptBatch, error) {
	if len(anns) == 0 {
		return nil, nil
	}
	t0 := time.Now()
	e.mu.RLock()
	defer e.mu.RUnlock()
	if !e.begun {
		return nil, fmt.Errorf("engine: BeginEpoch not called")
	}
	// Batched signature pass over the entire burst.
	bv := sigs.NewBatchVerifier(e.ver)
	for i := range anns {
		msg, err := anns[i].SignedBytes()
		if err != nil {
			return nil, fmt.Errorf("engine: accept %s from %s: %w", anns[i].Route.Prefix, anns[i].Provider, err)
		}
		bv.Add(anns[i].Provider, msg, anns[i].Sig)
	}
	tv := time.Now()
	verdicts := bv.Flush(writers)
	e.met.batchVerifySec.ObserveSince(tv)
	for i, err := range verdicts {
		if err != nil {
			return nil, fmt.Errorf("engine: accept %s from %s: %w", anns[i].Route.Prefix, anns[i].Provider, err)
		}
	}
	// Content checks and shard ingest, striped across writers.
	ingest := func(a core.Announcement) error {
		if err := e.acceptLocked(a, obs.NewTraceContext(), (*core.Prover).AcceptPreverified); err != nil {
			return fmt.Errorf("engine: accept %s from %s: %w", a.Route.Prefix, a.Provider, err)
		}
		return nil
	}
	if writers < 2 || len(anns) < 2 {
		for _, a := range anns {
			if err := ingest(a); err != nil {
				return nil, err
			}
		}
	} else {
		var wg sync.WaitGroup
		errs := make([]error, writers)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(anns); i += writers {
					if err := ingest(anns[i]); err != nil {
						errs[w] = err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	rb, err := core.NewReceiptBatch(e.cfg.Signer, e.cfg.ASN, e.epoch, anns)
	if err != nil {
		return nil, err
	}
	e.met.accepts.Add(uint64(len(anns)))
	e.met.batchSize.Observe(float64(len(anns)))
	e.met.batchSec.ObserveSince(t0)
	return rb, nil
}

// SealEpoch commits every shard in parallel: each shard computes its
// per-prefix bit-vector commitments, Merkle-batches their canonical bytes,
// and signs the root once. Idempotent; shards with no prefixes produce no
// seal. After sealing (or SealDirty), AcceptAnnouncement and AcceptAll
// fail until the next BeginEpoch (streaming callers mutate sealed state
// with ReplacePrefix/RemovePrefix and re-seal with SealDirty instead).
//
// On an engine that has already streamed (Window > 0), sealing a mutated
// shard under the *current* window would publish a second root for a
// (epoch, window, shard) topic whose seal may already have gossiped — a
// self-inflicted equivocation. SealEpoch therefore delegates to the
// dirty path in that case, advancing the window like SealDirty does.
func (e *ProverEngine) SealEpoch() ([]*Seal, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.begun {
		return nil, fmt.Errorf("engine: BeginEpoch not called")
	}
	e.sealed = true
	allSealed := true
	for _, s := range e.shards {
		s.mu.Lock()
		if !s.sealed {
			allSealed = false
		}
		s.mu.Unlock()
	}
	if allSealed {
		return e.sealsLocked(), nil
	}
	if e.window > 0 || e.resumed {
		// A resumed epoch takes the dirty path even at its first seal:
		// the recovered window (and every one before it) may already have
		// gossiped roots, so the fresh commitments must publish under the
		// next window, not re-occupy the recovered one.
		seals, _, err := e.sealDirtyLocked()
		return seals, err
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, len(e.shards))
	for i, s := range e.shards {
		wg.Add(1)
		go func(idx int, s *shard) {
			defer wg.Done()
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.sealed {
				return
			}
			errs[idx] = e.sealShardLocked(uint32(idx), s, 0)
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	e.met.sealSec.ObserveSince(t0)
	return e.sealsLocked(), nil
}

// sealShardLocked brings one shard's Merkle tree up to date and signs its
// seal for the given window. The caller holds s.mu. The work is
// proportional to the change: only the leaves put dropped or shifted are
// recomputed and rehashed, with their ⌈log₂n⌉ ancestors; a first seal is
// the same routine with every leaf changed.
func (e *ProverEngine) sealShardLocked(idx uint32, s *shard, window uint64) error {
	t0 := time.Now()
	seal := &Seal{
		Prover: e.cfg.ASN,
		Epoch:  e.epoch,
		Window: window,
		Shard:  idx,
		Shards: uint32(len(e.shards)),
		Trace:  s.trace,
	}
	// Empty shards still seal (Count 0, zero root): every epoch publishes
	// exactly Shards seals, so shard 0 always exists and two seal sets
	// with different layouts are guaranteed to collide on a gossip topic
	// (their signed Shards fields differ), surfacing the equivocation.
	if n := len(s.order); n > 0 {
		changed := s.changed()
		for _, i := range changed {
			if s.order[i].leaf == nil {
				leaf, err := e.leaf(s, s.order[i].pfx)
				if err != nil {
					return err
				}
				s.order[i].leaf = leaf
			}
		}
		if err := s.batch.Update(n, changed, func(i int) []byte { return s.order[i].leaf }); err != nil {
			return err
		}
		e.met.leavesHashed.Add(uint64(len(changed)))
		seal.Count = uint32(n)
		seal.Root = s.batch.Root()
	} else {
		s.batch = merkle.Batch{}
	}
	s.moved, s.stale = len(s.order), s.stale[:0]
	var err error
	if seal.Sig, err = e.cfg.Signer.Sign(seal.SignedBytes()); err != nil {
		return err
	}
	// Mark sealed only once the seal exists: a mid-seal error leaves the
	// shard unsealed so a retried seal redoes the work instead of silently
	// returning a seal set with holes.
	s.seal = seal
	s.sealed = true
	e.met.shardSealSec.ObserveSince(t0)
	e.met.sealsTotal.Inc()
	e.met.shardsRebuilt.Inc()
	e.tr.Record(obs.Event{
		Kind: obs.EvShardSealed, Epoch: e.epoch, Window: window,
		Shard: int(idx), Note: fmt.Sprintf("%d prefixes", seal.Count),
	}.SetTrace(s.trace))
	return nil
}

// changed returns the leaf indices the next seal must rehash, ascending:
// those of the prefixes replaced in place below moved, then every index
// from moved on.
func (s *shard) changed() []int {
	out := make([]int, 0, len(s.stale)+len(s.order)-s.moved)
	for _, pfx := range s.stale {
		if i, ok := s.find(pfx); ok && i < s.moved {
			out = append(out, i)
		}
	}
	slices.Sort(out)
	out = slices.Compact(out)
	for i := s.moved; i < len(s.order); i++ {
		out = append(out, i)
	}
	return out
}

// leaf computes pfx's canonical leaf bytes; the caller holds s.mu.
func (e *ProverEngine) leaf(s *shard, pfx prefix.Prefix) ([]byte, error) {
	p := s.provers[pfx]
	mc, err := p.CommitMinUnsigned()
	if err != nil {
		return nil, err
	}
	leaf, err := mc.SignedBytes()
	if err != nil {
		return nil, err
	}
	if e.cfg.Promisee != 0 {
		// Bind a hiding commitment to the prefix's export statement into
		// the leaf: the seal then vouches for the export without a
		// per-prefix signature, and providers (who see the leaf via
		// inclusion proofs) learn nothing about what was exported.
		exp, err := p.ExportUnsigned(e.cfg.Promisee)
		if err != nil {
			return nil, err
		}
		eb, err := exp.SignedBytes()
		if err != nil {
			return nil, err
		}
		cm, op, err := e.cm.Commit(exportCommitTag, eb)
		if err != nil {
			return nil, err
		}
		s.exports[pfx] = &sealedExport{stmt: exp, cm: cm, op: op}
		leaf = append(leaf, cm[:]...)
	}
	if e.cfg.ZKBind {
		// Bind the digest of a Pedersen commitment vector over the
		// committed bits into the leaf. The seal signature then vouches
		// for the Pedersen vector alongside the hash-based one, letting
		// the privacy plane hand third parties Σ-protocol proofs that
		// verify against the gossiped seal.
		bits, err := p.CommittedBits()
		if err != nil {
			return nil, err
		}
		cs, os, err := zkp.CommitBits(bits)
		if err != nil {
			return nil, err
		}
		z := &zkState{cs: cs, os: os, digest: zkp.DigestCommitments(cs)}
		s.zk[pfx] = z
		leaf = append(leaf, z.digest[:]...)
	}
	return leaf, nil
}

// ReplacePrefix is the streaming mutation path (internal/updplane): it
// swaps the prefix's prover state for a fresh one built from the current
// candidate announcements, marking the prefix's shard dirty so the next
// SealDirty re-commits it. Unlike AcceptAnnouncement it is legal after a
// seal — the shard is un-sealed until the next SealDirty, and disclosures
// for its prefixes fail in between (the published seal no longer matches
// the mutated state). An empty candidate set removes the prefix. tc is the
// distributed trace (a zero tc mints a fresh one): the streaming update
// plane passes the trace carried by the churn event that triggered the
// swap.
func (e *ProverEngine) ReplacePrefix(pfx prefix.Prefix, anns []core.Announcement, tc obs.TraceContext) error {
	if len(anns) == 0 {
		_, err := e.RemovePrefix(pfx, tc)
		return err
	}
	if tc.IsZero() {
		tc = obs.NewTraceContext()
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if !e.begun {
		return fmt.Errorf("engine: BeginEpoch not called")
	}
	p, err := core.NewProver(e.cfg.ASN, e.cfg.Signer, e.ver, e.cfg.MaxLen)
	if err != nil {
		return err
	}
	p.BeginEpoch(e.epoch, pfx)
	// Build (and verify) the replacement prover before touching shard
	// state, so a bad announcement leaves the previous state intact. The
	// announcements are verified and then recorded preverified: the old
	// path signed a receipt per candidate only to discard it, a pure
	// waste under streaming churn.
	for _, a := range anns {
		if a.Route.Prefix != pfx {
			return fmt.Errorf("engine: replace %s: announcement covers %s", pfx, a.Route.Prefix)
		}
		if err := a.Verify(e.annVer); err != nil {
			return fmt.Errorf("engine: replace %s from %s: %w", pfx, a.Provider, err)
		}
		if err := p.AcceptPreverified(a); err != nil {
			return fmt.Errorf("engine: replace %s from %s: %w", pfx, a.Provider, err)
		}
	}
	s, _, err := e.shardOf(pfx)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.put(pfx, p, tc)
	e.met.accepts.Add(uint64(len(anns)))
	e.tr.Record(obs.Event{
		Kind: obs.EvAnnounceAccepted, Epoch: e.epoch, Prefix: pfx.String(),
		AS: uint32(anns[0].Provider), Note: fmt.Sprintf("%d candidates", len(anns)),
	}.SetTrace(tc))
	return nil
}

// RemovePrefix withdraws a prefix from the table (streaming path),
// reporting whether it was present. Like ReplacePrefix it dirties the
// shard and un-seals it until the next SealDirty. A zero tc mints a fresh
// trace for the withdrawal.
func (e *ProverEngine) RemovePrefix(pfx prefix.Prefix, tc obs.TraceContext) (bool, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if !e.begun {
		return false, fmt.Errorf("engine: BeginEpoch not called")
	}
	s, _, err := e.shardOf(pfx)
	if err != nil {
		return false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.provers[pfx]; !ok {
		return false, nil
	}
	if tc.IsZero() {
		tc = obs.NewTraceContext()
	}
	s.put(pfx, nil, tc)
	return true, nil
}

// SealDirty advances the commitment window and re-seals incrementally:
// shards dirtied since their last seal update their Merkle tree, hashing
// only the leaves that changed or moved and their ancestors, and every
// clean shard merely re-signs its existing root under the new window —
// one signature, no per-prefix work. It returns the full seal set for the
// new window plus the indices of the shards that were actually rebuilt;
// the difference is the §3.8 saving the update plane exists to exploit.
// Never-sealed shards count as dirty.
func (e *ProverEngine) SealDirty() ([]*Seal, []uint32, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.begun {
		return nil, nil, fmt.Errorf("engine: BeginEpoch not called")
	}
	e.sealed = true
	return e.sealDirtyLocked()
}

// sealDirtyLocked advances the window and re-seals; the caller holds
// e.mu exclusively.
func (e *ProverEngine) sealDirtyLocked() ([]*Seal, []uint32, error) {
	t0 := time.Now()
	e.window++
	window := e.window
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		rebuilt []uint32
	)
	errs := make([]error, len(e.shards))
	for i, s := range e.shards {
		wg.Add(1)
		go func(idx int, s *shard) {
			defer wg.Done()
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.sealed {
				// Clean shard: same root, fresh window, one signature.
				ns := *s.seal
				ns.Window = window
				sig, err := e.cfg.Signer.Sign(ns.SignedBytes())
				if err != nil {
					errs[idx] = err
					return
				}
				ns.Sig = sig
				s.seal = &ns
				e.met.sealsTotal.Inc()
				e.met.shardsResigned.Inc()
				return
			}
			if err := e.sealShardLocked(uint32(idx), s, window); err != nil {
				errs[idx] = err
				return
			}
			mu.Lock()
			rebuilt = append(rebuilt, uint32(idx))
			mu.Unlock()
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	sort.Slice(rebuilt, func(i, j int) bool { return rebuilt[i] < rebuilt[j] })
	e.met.sealSec.ObserveSince(t0)
	return e.sealsLocked(), rebuilt, nil
}

// Seals returns the shard seals of the sealed epoch, ascending by shard
// index — exactly ShardCount of them, empty shards included.
func (e *ProverEngine) Seals() []*Seal {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.sealsLocked()
}

func (e *ProverEngine) sealsLocked() []*Seal {
	var out []*Seal
	for _, s := range e.shards {
		s.mu.Lock()
		if s.seal != nil {
			out = append(out, s.seal)
		}
		s.mu.Unlock()
	}
	return out
}

// PrefixCount reports how many prefixes hold accepted state this epoch,
// without materializing them (use Prefixes for the sorted list).
func (e *ProverEngine) PrefixCount() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	n := 0
	for _, s := range e.shards {
		s.mu.Lock()
		n += len(s.provers)
		s.mu.Unlock()
	}
	return n
}

// Prefixes returns every prefix with accepted state this epoch, sorted.
func (e *ProverEngine) Prefixes() []prefix.Prefix {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var out []prefix.Prefix
	for _, s := range e.shards {
		s.mu.Lock()
		for pfx := range s.provers {
			out = append(out, pfx)
		}
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Providers lists the ASNs that provided an input announcement for pfx
// this epoch, ascending. It reads the live shard state and never rebuilds
// or re-seals anything — the disclosure query plane (internal/discplane)
// calls it on every α decision for a provider-role query.
func (e *ProverEngine) Providers(pfx prefix.Prefix) ([]aspath.ASN, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if !e.begun {
		return nil, fmt.Errorf("engine: BeginEpoch not called")
	}
	s, _, err := e.shardOf(pfx)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.provers[pfx]
	if !ok {
		return nil, fmt.Errorf("engine: no state for prefix %s", pfx)
	}
	return p.Inputs(), nil
}

// sealedProver returns the prefix's prover plus its sealed commitment
// material and any sealed export; the epoch must be sealed and the
// prefix known.
func (e *ProverEngine) sealedProver(pfx prefix.Prefix) (*core.Prover, *SealedCommitment, *sealedExport, error) {
	s, _, err := e.shardOf(pfx)
	if err != nil {
		return nil, nil, nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.sealed {
		return nil, nil, nil, fmt.Errorf("engine: epoch not sealed")
	}
	p, ok := s.provers[pfx]
	if !ok {
		return nil, nil, nil, fmt.Errorf("engine: no state for prefix %s", pfx)
	}
	mc, err := p.CommitMinUnsigned()
	if err != nil {
		return nil, nil, nil, err
	}
	i, _ := s.find(pfx)
	proof, err := s.batch.Prove(i)
	if err != nil {
		return nil, nil, nil, err
	}
	sc := &SealedCommitment{MC: mc, Proof: proof, Seal: s.seal}
	se := s.exports[pfx]
	if se != nil {
		sc.ExportC, sc.HasExport = se.cm, true
	}
	if z := s.zk[pfx]; z != nil {
		sc.ZKDigest, sc.HasZK = z.digest, true
	}
	return p, sc, se, nil
}

// Commitment returns the sealed commitment for one prefix: what the engine
// publishes (and neighbors gossip) in place of a per-prefix signature.
func (e *ProverEngine) Commitment(pfx prefix.Prefix) (*SealedCommitment, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	_, sc, _, err := e.sealedProver(pfx)
	return sc, err
}

// Advertisement returns what a BGP speaker sends for one prefix: its
// sealed commitment and the exported route (the winner with this AS
// prepended). Nothing is signed; the caller signs the route body itself.
func (e *ProverEngine) Advertisement(pfx prefix.Prefix) (*SealedCommitment, route.Route, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	p, sc, _, err := e.sealedProver(pfx)
	if err != nil {
		return nil, route.Route{}, err
	}
	exp, err := p.ExportUnsigned(0)
	if err != nil {
		return nil, route.Route{}, err
	}
	return sc, exp.Route, nil
}

// ProviderView is the engine's disclosure to a provider N_i for one
// prefix: the §3.3 single-bit opening, authenticated by the shard seal.
type ProviderView struct {
	Sealed   *SealedCommitment
	Position int
	Opening  commit.Opening
}

// PromiseeView is the engine's disclosure to the promisee B for one
// prefix: the full opened vector, provenance, and export, authenticated by
// the shard seal.
type PromiseeView struct {
	Sealed   *SealedCommitment
	Openings []commit.Opening
	Winner   *core.Announcement
	Export   core.ExportStatement
	// ExportOpening opens Sealed.ExportC to the export's canonical bytes
	// when the export is sealed (Export.Sig nil) rather than signed.
	ExportOpening commit.Opening
}

// DiscloseToProvider builds provider ni's view for one prefix. SealEpoch
// must have been called.
func (e *ProverEngine) DiscloseToProvider(pfx prefix.Prefix, ni aspath.ASN) (*ProviderView, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	p, sc, _, err := e.sealedProver(pfx)
	if err != nil {
		return nil, err
	}
	v, err := p.DiscloseToProvider(ni)
	if err != nil {
		return nil, err
	}
	return &ProviderView{Sealed: sc, Position: v.Position, Opening: v.Opening}, nil
}

// DiscloseAtLength builds the provider view for an anonymous (ring-signed)
// disclosure at the given declared route length, without naming a provider:
// the privacy plane authenticates the asker as *some* member of the
// prefix's provider ring and the engine opens the single bit at the
// length the asker declared. The position must equal the path length of
// some accepted input — an anonymous asker cannot probe arbitrary bits.
func (e *ProverEngine) DiscloseAtLength(pfx prefix.Prefix, pos int) (*ProviderView, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	p, sc, _, err := e.sealedProver(pfx)
	if err != nil {
		return nil, err
	}
	v, err := p.DiscloseAtLength(pos)
	if err != nil {
		return nil, err
	}
	return &ProviderView{Sealed: sc, Position: v.Position, Opening: v.Opening}, nil
}

// ZKOpenings returns the Pedersen bit-vector commitments sealed into the
// prefix's leaf together with their openings and the sealed commitment
// that authenticates them. The openings are proving secrets: the caller
// (internal/privplane) uses them to build zero-knowledge proofs and must
// never put them on the wire. Requires Config.ZKBind and a sealed epoch.
func (e *ProverEngine) ZKOpenings(pfx prefix.Prefix) ([]zkp.Commitment, []zkp.Opening, *SealedCommitment, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	_, sc, _, err := e.sealedProver(pfx)
	if err != nil {
		return nil, nil, nil, err
	}
	if !sc.HasZK {
		return nil, nil, nil, fmt.Errorf("engine: prefix %s sealed without ZK commitments", pfx)
	}
	s, _, err := e.shardOf(pfx)
	if err != nil {
		return nil, nil, nil, err
	}
	s.mu.Lock()
	z := s.zk[pfx]
	s.mu.Unlock()
	if z == nil {
		return nil, nil, nil, fmt.Errorf("engine: no ZK state for prefix %s", pfx)
	}
	return z.cs, z.os, sc, nil
}

// DiscloseToPromisee builds promisee b's view for one prefix. SealEpoch
// must have been called. When b is the configured sealed-export promisee,
// the view carries the leaf-bound export and its commitment opening
// instead of a freshly signed statement; any other b still gets a signed
// export.
func (e *ProverEngine) DiscloseToPromisee(pfx prefix.Prefix, b aspath.ASN) (*PromiseeView, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	p, sc, se, err := e.sealedProver(pfx)
	if err != nil {
		return nil, err
	}
	if se != nil && b == e.cfg.Promisee {
		v, err := p.DiscloseToPromiseeWith(se.stmt)
		if err != nil {
			return nil, err
		}
		return &PromiseeView{
			Sealed: sc, Openings: v.Openings, Winner: v.Winner,
			Export: se.stmt, ExportOpening: se.op,
		}, nil
	}
	v, err := p.DiscloseToPromisee(b)
	if err != nil {
		return nil, err
	}
	return &PromiseeView{Sealed: sc, Openings: v.Openings, Winner: v.Winner, Export: v.Export}, nil
}

// VerifyProviderView is N_i's check of an engine disclosure: authenticate
// the sealed commitment (seal signature + Merkle inclusion), then run the
// §3.3 opening check. A *core.Violation error means N_i caught the prover.
func VerifyProviderView(ver sigs.Verifier, v *ProviderView, myAnn core.Announcement) error {
	return verifyProviderView(func(s *Seal) error { return s.Verify(ver) }, ver, v, myAnn)
}

func verifyProviderView(checkSeal func(*Seal) error, ver sigs.Verifier, v *ProviderView, myAnn core.Announcement) error {
	if v == nil || v.Sealed == nil {
		return fmt.Errorf("engine: missing sealed commitment")
	}
	if err := v.Sealed.verify(checkSeal); err != nil {
		return err
	}
	return core.CheckProviderOpening(v.Sealed.MC, v.Position, v.Opening, myAnn)
}

// VerifyPromiseeView is B's check of an engine disclosure: authenticate
// the sealed commitment, then run the full §3.3 vector/export check. A
// *core.Violation error means B caught the prover.
func VerifyPromiseeView(ver sigs.Verifier, v *PromiseeView) error {
	return verifyPromiseeView(func(s *Seal) error { return s.Verify(ver) }, core.ImmediateChecker(ver), v)
}

func verifyPromiseeView(checkSeal func(*Seal) error, ck core.SigChecker, v *PromiseeView) error {
	if v == nil || v.Sealed == nil {
		return fmt.Errorf("engine: missing sealed commitment")
	}
	if err := v.Sealed.verify(checkSeal); err != nil {
		return err
	}
	exportAuthed := false
	if len(v.Export.Sig) == 0 {
		// Sealed export: the shard leaf binds a hiding commitment to the
		// statement's canonical bytes, so opening the commitment
		// authenticates the export exactly as a signature would — the
		// seal signature (already checked) vouches for the leaf, and the
		// inclusion proof (already checked) ties the leaf to this
		// prefix's commitment.
		if !v.Sealed.HasExport {
			return fmt.Errorf("engine: unsigned export without a sealed export commitment")
		}
		eb, err := v.Export.SignedBytes()
		if err != nil {
			return err
		}
		if v.ExportOpening.Tag != exportCommitTag || !bytes.Equal(v.ExportOpening.Value, eb) {
			return fmt.Errorf("engine: export opening does not open to the disclosed statement")
		}
		if err := commit.Verify(v.Sealed.ExportC, v.ExportOpening); err != nil {
			return fmt.Errorf("engine: export opening rejected: %v", err)
		}
		exportAuthed = true
	}
	return core.CheckPromiseeDisclosureDeferred(ck, &core.PromiseeView{
		Commitment: v.Sealed.MC,
		Openings:   v.Openings,
		Winner:     v.Winner,
		Export:     v.Export,
	}, exportAuthed)
}
