package engine

import (
	"testing"

	"pvr/internal/core"
	"pvr/internal/merkle"
	"pvr/internal/obs"
	"pvr/internal/prefix"
)

// buildTable ingests one announcement per prefix from provider 101 and
// seals the epoch, returning the prefixes.
func buildTable(t *testing.T, e *env, eng *ProverEngine, n int) []prefix.Prefix {
	t.Helper()
	eng.BeginEpoch(1)
	pfxs := testPrefixes(t, n)
	for i, pfx := range pfxs {
		if err := eng.AcceptAnnouncement(e.announce(t, 101, 1, pfx, 1+i%8), obs.TraceContext{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.SealEpoch(); err != nil {
		t.Fatal(err)
	}
	return pfxs
}

func rootsByShard(t *testing.T, seals []*Seal) map[uint32]merkle.Root {
	t.Helper()
	out := make(map[uint32]merkle.Root, len(seals))
	for _, s := range seals {
		out[s.Shard] = s.Root
	}
	return out
}

// TestSealDirtyRebuildsOnlyDirtyShards is the core streaming invariant:
// after one prefix changes, SealDirty rebuilds exactly that prefix's
// shard; every other shard keeps its root and merely re-signs under the
// new window.
func TestSealDirtyRebuildsOnlyDirtyShards(t *testing.T) {
	e := newEnv(t, 2)
	eng := e.engine(t, 4, 16)
	pfxs := buildTable(t, e, eng, 32)
	before := rootsByShard(t, eng.Seals())

	target := pfxs[7]
	wantShard, err := ShardIndexFor(target, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ReplacePrefix(target, replacementAnns(t, e, target), obs.TraceContext{}); err != nil {
		t.Fatal(err)
	}
	seals, rebuilt, err := eng.SealDirty()
	if err != nil {
		t.Fatal(err)
	}
	if len(seals) != 4 {
		t.Fatalf("got %d seals, want 4", len(seals))
	}
	if len(rebuilt) != 1 || rebuilt[0] != wantShard {
		t.Fatalf("rebuilt shards %v, want [%d]", rebuilt, wantShard)
	}
	if got := eng.Window(); got != 1 {
		t.Fatalf("window = %d, want 1", got)
	}
	after := rootsByShard(t, seals)
	for _, s := range seals {
		if s.Window != 1 {
			t.Fatalf("shard %d sealed at window %d, want 1", s.Shard, s.Window)
		}
		if err := s.Verify(e.reg); err != nil {
			t.Fatalf("shard %d window-1 seal does not verify: %v", s.Shard, err)
		}
		if s.Shard == wantShard {
			if after[s.Shard] == before[s.Shard] {
				t.Fatalf("dirty shard %d root unchanged", s.Shard)
			}
			continue
		}
		if after[s.Shard] != before[s.Shard] {
			t.Fatalf("clean shard %d root changed across windows", s.Shard)
		}
	}
}

// replacementAnns builds the replacement candidate set for a prefix: a
// changed route from provider 101 plus one from provider 102.
func replacementAnns(t *testing.T, e *env, pfx prefix.Prefix) []core.Announcement {
	return []core.Announcement{
		e.announce(t, 101, 1, pfx, 5),
		e.announce(t, 102, 1, pfx, 3),
	}
}

// TestSealDirtyDisclosuresVerify checks the full chain after an
// incremental re-seal: sealed commitments for both changed and unchanged
// prefixes verify against the window-1 seals.
func TestSealDirtyDisclosuresVerify(t *testing.T) {
	e := newEnv(t, 2)
	eng := e.engine(t, 4, 16)
	pfxs := buildTable(t, e, eng, 16)

	target := pfxs[3]
	if err := eng.ReplacePrefix(target, replacementAnns(t, e, target), obs.TraceContext{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.SealDirty(); err != nil {
		t.Fatal(err)
	}
	for _, pfx := range []prefix.Prefix{target, pfxs[4]} {
		sc, err := eng.Commitment(pfx)
		if err != nil {
			t.Fatalf("commitment %s: %v", pfx, err)
		}
		if err := sc.Verify(e.reg); err != nil {
			t.Fatalf("sealed commitment %s does not verify: %v", pfx, err)
		}
		if sc.Seal.Window != 1 {
			t.Fatalf("commitment %s sealed at window %d, want 1", pfx, sc.Seal.Window)
		}
	}
	v, err := eng.DiscloseToPromisee(target, tPromisee)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyPromiseeView(e.reg, v); err != nil {
		t.Fatalf("promisee view after dirty re-seal: %v", err)
	}
}

// TestMutationUnsealsShard: between a streaming mutation and the next
// SealDirty, disclosures for the dirty shard must fail — the published
// seal no longer covers the mutated state.
func TestMutationUnsealsShard(t *testing.T) {
	e := newEnv(t, 2)
	eng := e.engine(t, 2, 16)
	pfxs := buildTable(t, e, eng, 8)

	if err := eng.ReplacePrefix(pfxs[0], replacementAnns(t, e, pfxs[0]), obs.TraceContext{}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Commitment(pfxs[0]); err == nil {
		t.Fatal("disclosure succeeded for mutated, un-resealed shard")
	}
	if _, _, err := eng.SealDirty(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Commitment(pfxs[0]); err != nil {
		t.Fatalf("disclosure after re-seal: %v", err)
	}
}

// TestRemovePrefix: withdrawing the only route for a prefix drops it from
// the table and the next window's shard root no longer includes it.
func TestRemovePrefix(t *testing.T) {
	e := newEnv(t, 2)
	eng := e.engine(t, 2, 16)
	pfxs := buildTable(t, e, eng, 8)

	removed, err := eng.RemovePrefix(pfxs[2], obs.TraceContext{})
	if err != nil || !removed {
		t.Fatalf("RemovePrefix = (%v, %v), want (true, nil)", removed, err)
	}
	if removed, err = eng.RemovePrefix(pfxs[2], obs.TraceContext{}); err != nil || removed {
		t.Fatalf("second RemovePrefix = (%v, %v), want (false, nil)", removed, err)
	}
	if _, _, err := eng.SealDirty(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Commitment(pfxs[2]); err == nil {
		t.Fatal("commitment served for removed prefix")
	}
	// A sibling prefix in the same shard still discloses.
	shard2, _ := ShardIndexFor(pfxs[2], 2)
	for _, pfx := range pfxs {
		if s, _ := ShardIndexFor(pfx, 2); s == shard2 && pfx != pfxs[2] {
			sc, err := eng.Commitment(pfx)
			if err != nil {
				t.Fatalf("sibling %s: %v", pfx, err)
			}
			if err := sc.Verify(e.reg); err != nil {
				t.Fatalf("sibling %s: %v", pfx, err)
			}
			return
		}
	}
}

// TestSealWindowWireRoundTrip covers the v2 seal encoding with a nonzero
// window.
func TestSealWindowWireRoundTrip(t *testing.T) {
	e := newEnv(t, 2)
	eng := e.engine(t, 2, 16)
	pfxs := buildTable(t, e, eng, 4)
	if err := eng.ReplacePrefix(pfxs[0], replacementAnns(t, e, pfxs[0]), obs.TraceContext{}); err != nil {
		t.Fatal(err)
	}
	seals, _, err := eng.SealDirty()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range seals {
		b, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var got Seal
		if err := got.UnmarshalBinary(b); err != nil {
			t.Fatal(err)
		}
		if got.Window != s.Window || got.Epoch != s.Epoch || got.Shard != s.Shard ||
			got.Shards != s.Shards || got.Count != s.Count || got.Root != s.Root {
			t.Fatalf("round trip mismatch: %+v vs %+v", got, s)
		}
		if err := got.Verify(e.reg); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSealEpochAfterStreamingAdvancesWindow: once an engine has
// streamed, SealEpoch on a mutated shard must not publish a second root
// under an already-gossiped (epoch, window, shard) topic — it advances
// the window like SealDirty instead of self-equivocating.
func TestSealEpochAfterStreamingAdvancesWindow(t *testing.T) {
	e := newEnv(t, 2)
	eng := e.engine(t, 2, 16)
	pfxs := buildTable(t, e, eng, 8)
	if err := eng.ReplacePrefix(pfxs[0], replacementAnns(t, e, pfxs[0]), obs.TraceContext{}); err != nil {
		t.Fatal(err)
	}
	w1, _, err := eng.SealDirty() // window 1 gossips
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.ReplacePrefix(pfxs[0], []core.Announcement{e.announce(t, 101, 1, pfxs[0], 7)}, obs.TraceContext{}); err != nil {
		t.Fatal(err)
	}
	w2, err := eng.SealEpoch() // batch-style call on a streamed engine
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range w2 {
		if s.Window != 2 {
			t.Fatalf("SealEpoch after streaming sealed shard %d at window %d, want 2", s.Shard, s.Window)
		}
	}
	// Idempotent second call: no further window advance.
	w3, err := eng.SealEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if w3[0].Window != 2 {
		t.Fatalf("idempotent SealEpoch advanced to window %d", w3[0].Window)
	}
	// And no (epoch, window, shard) topic carries two different roots.
	seen := map[string][32]byte{}
	for _, s := range append(append([]*Seal{}, w1...), w2...) {
		if prev, ok := seen[s.GossipTopic()]; ok && prev != s.Root {
			t.Fatalf("topic %s published with two roots", s.GossipTopic())
		}
		seen[s.GossipTopic()] = s.Root
	}
}

// TestSealDirtyTopicsDistinctAcrossWindows: re-seals of the same shard in
// consecutive windows must gossip under different topics (no false
// equivocation), while two seals for the same (epoch, window, shard)
// share a topic (true equivocation still collides).
func TestSealDirtyTopicsDistinctAcrossWindows(t *testing.T) {
	a := &Seal{Prover: tProver, Epoch: 1, Window: 1, Shard: 0, Shards: 4}
	b := &Seal{Prover: tProver, Epoch: 1, Window: 2, Shard: 0, Shards: 4}
	c := &Seal{Prover: tProver, Epoch: 1, Window: 2, Shard: 0, Shards: 4}
	if a.GossipTopic() == b.GossipTopic() {
		t.Fatal("consecutive windows share a gossip topic")
	}
	if b.GossipTopic() != c.GossipTopic() {
		t.Fatal("same (epoch, window, shard) does not share a topic")
	}
}
