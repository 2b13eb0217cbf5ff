package engine

import (
	"bytes"
	"strings"
	"testing"

	"pvr/internal/core"
	"pvr/internal/merkle"
	"pvr/internal/obs"
)

// TestReplacePrefixRejectsOtherPrefix: a replacement whose announcement
// covers another prefix fails, and the prefix keeps its sealed state,
// window and providers.
func TestReplacePrefixRejectsOtherPrefix(t *testing.T) {
	e := newEnv(t, 1)
	eng := e.engine(t, 2, 8)
	eng.BeginEpoch(1)
	pfxs := testPrefixes(t, 2)
	if err := eng.ReplacePrefix(pfxs[0], []core.Announcement{e.announce(t, 101, 1, pfxs[0], 2)}, obs.TraceContext{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.SealDirty(); err != nil {
		t.Fatal(err)
	}
	before, err := eng.Commitment(pfxs[0])
	if err != nil {
		t.Fatal(err)
	}
	window := eng.Window()

	other := e.announce(t, 101, 1, pfxs[1], 3)
	if err := eng.ReplacePrefix(pfxs[0], []core.Announcement{other}, obs.TraceContext{}); err == nil {
		t.Fatal("ReplacePrefix accepted an announcement for another prefix")
	}
	after, err := eng.Commitment(pfxs[0])
	if err != nil {
		t.Fatalf("prefix lost its sealed state: %v", err)
	}
	bb, _ := before.MC.SignedBytes()
	ab, _ := after.MC.SignedBytes()
	if after.Seal != before.Seal || !bytes.Equal(ab, bb) || eng.Window() != window {
		t.Fatal("a rejected replacement changed the sealed state")
	}
	if got, _ := eng.Providers(pfxs[0]); len(got) != 1 || got[0] != 101 {
		t.Fatalf("providers after rejection = %v, want [101]", got)
	}
	if eng.PrefixCount() != 1 {
		t.Fatalf("rejected replacement left %d prefixes, want 1", eng.PrefixCount())
	}
}

// TestSealedCommitmentWrongShardRejected: a commitment sealed in a shard
// its prefix does not hash to fails Verify, although its seal signature
// and inclusion proof are sound.
func TestSealedCommitmentWrongShardRejected(t *testing.T) {
	e := newEnv(t, 1)
	eng := e.engine(t, 2, 8)
	eng.BeginEpoch(1)
	pfx := testPrefixes(t, 1)[0]
	if err := eng.AcceptAnnouncement(e.announce(t, 101, 1, pfx, 2), obs.TraceContext{}); err != nil {
		t.Fatal(err)
	}
	right, idx, err := eng.shardOf(pfx)
	if err != nil {
		t.Fatal(err)
	}
	wrong := eng.shards[1-idx]
	p := right.provers[pfx]
	right.put(pfx, nil, obs.TraceContext{})
	wrong.put(pfx, p, obs.TraceContext{})
	if _, err := eng.SealEpoch(); err != nil {
		t.Fatal(err)
	}

	mc, err := p.CommitMinUnsigned()
	if err != nil {
		t.Fatal(err)
	}
	proof, err := wrong.batch.Prove(0)
	if err != nil {
		t.Fatal(err)
	}
	sc := &SealedCommitment{MC: mc, Proof: proof, Seal: wrong.seal}
	leaf, _ := mc.SignedBytes()
	if err := wrong.seal.Verify(e.reg); err != nil {
		t.Fatal(err)
	}
	if err := merkle.VerifyBatch(wrong.seal.Root, leaf, proof); err != nil {
		t.Fatal(err)
	}
	if err := sc.Verify(e.reg); err == nil || !strings.Contains(err.Error(), "maps to shard") {
		t.Fatalf("commitment sealed in the wrong shard: Verify = %v", err)
	}
}
