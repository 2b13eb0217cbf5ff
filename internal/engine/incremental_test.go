package engine

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"pvr/internal/aspath"
	"pvr/internal/core"
	"pvr/internal/merkle"
	"pvr/internal/obs"
	"pvr/internal/prefix"
)

// TestIncrementalSealMatchesNewBatch drives an engine through many windows
// of in-place replacements, withdrawals, re-announcements and refused
// accepts, with shards growing past and shrinking below powers of two and
// emptied and refilled. After every seal each shard's root and every
// inclusion proof must be byte-identical to merkle.NewBatch over the
// shard's sorted leaves, and every commitment must verify.
func TestIncrementalSealMatchesNewBatch(t *testing.T) {
	const shards = 2
	e := newEnv(t, 3)
	eng, err := New(Config{
		ASN: tProver, Signer: e.signers[tProver], Registry: e.reg,
		Shards: shards, MaxLen: 8, Promisee: tPromisee,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(7, 11))
	pool := testPrefixes(t, 90)
	present := map[prefix.Prefix]bool{}
	candidates := func(pfx prefix.Prefix) []core.Announcement {
		var anns []core.Announcement
		for _, from := range []aspath.ASN{101, 102, 103}[:1+rng.IntN(3)] {
			anns = append(anns, e.announce(t, from, 1, pfx, 1+rng.IntN(7)))
		}
		return anns
	}
	pick := func(want bool) prefix.Prefix {
		for {
			if pfx := pool[rng.IntN(len(pool))]; present[pfx] == want {
				return pfx
			}
		}
	}

	var maxSize int
	emptied := make([]bool, shards)
	refilled := make([]bool, shards)
	check := func(step string) {
		t.Helper()
		for idx, s := range eng.shards {
			s.mu.Lock()
			n := len(s.order)
			maxSize = max(maxSize, n)
			if n == 0 {
				emptied[idx] = true
			} else if emptied[idx] {
				refilled[idx] = true
			}
			if len(s.provers) != n || !slices.IsSortedFunc(s.order, func(a, b leafSlot) int { return a.pfx.Compare(b.pfx) }) {
				s.mu.Unlock()
				t.Fatalf("%s: shard %d order out of step with its provers", step, idx)
			}
			if n == 0 {
				if s.seal.Count != 0 || s.seal.Root != (merkle.Root{}) {
					t.Errorf("%s: empty shard %d sealed count %d", step, idx, s.seal.Count)
				}
				s.mu.Unlock()
				continue
			}
			leaves := make([][]byte, n)
			for i, slot := range s.order {
				leaves[i] = slot.leaf
			}
			ref, err := merkle.NewBatch(leaves)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Root() != s.batch.Root() || ref.Root() != s.seal.Root || s.seal.Count != uint32(n) {
				t.Errorf("%s: shard %d (%d leaves) root %s, NewBatch %s", step, idx, n, s.batch.Root(), ref.Root())
			}
			for i := 0; i < n; i++ {
				got, _ := s.batch.Prove(i)
				want, _ := ref.Prove(i)
				gb, _ := got.MarshalBinary()
				wb, _ := want.MarshalBinary()
				if !bytes.Equal(gb, wb) {
					t.Errorf("%s: shard %d proof %d differs from NewBatch", step, idx, i)
				}
			}
			s.mu.Unlock()
		}
		for pfx := range present {
			sc, err := eng.Commitment(pfx)
			if err != nil {
				t.Fatalf("%s: %s: %v", step, pfx, err)
			}
			if err := sc.Verify(e.reg); err != nil {
				t.Fatalf("%s: %s: %v", step, pfx, err)
			}
		}
	}

	eng.BeginEpoch(1)
	for len(present) < 24 {
		pfx := pick(false)
		for _, a := range candidates(pfx) {
			if err := eng.AcceptAnnouncement(a, obs.TraceContext{}); err != nil {
				t.Fatal(err)
			}
		}
		present[pfx] = true
	}
	if _, err := eng.SealEpoch(); err != nil {
		t.Fatal(err)
	}
	check("epoch seal")

	// Grow past 32 leaves a shard, empty the table, refill, then churn.
	targets := []int{40, 56, 76, 76, 48, 20, 6, 0, 0, 10, 30, 50, 50, 34, 34, 12, 40}
	for w, target := range targets {
		for r := rng.IntN(4); r > 0 && len(present) > 0; r-- {
			pfx := pick(true)
			if err := eng.ReplacePrefix(pfx, candidates(pfx), obs.TraceContext{}); err != nil {
				t.Fatal(err)
			}
		}
		if len(present) > 0 && rng.IntN(2) == 0 {
			// Withdrawn and re-announced within one window.
			pfx := pick(true)
			if _, err := eng.RemovePrefix(pfx, obs.TraceContext{}); err != nil {
				t.Fatal(err)
			}
			if err := eng.ReplacePrefix(pfx, candidates(pfx), obs.TraceContext{}); err != nil {
				t.Fatal(err)
			}
		}
		for len(present) < target {
			pfx := pick(false)
			if err := eng.ReplacePrefix(pfx, candidates(pfx), obs.TraceContext{}); err != nil {
				t.Fatal(err)
			}
			present[pfx] = true
		}
		for len(present) > target {
			pfx := pick(true)
			if ok, err := eng.RemovePrefix(pfx, obs.TraceContext{}); !ok || err != nil {
				t.Fatalf("remove %s: %v, %v", pfx, ok, err)
			}
			delete(present, pfx)
		}
		// The epoch is sealed: an accept is refused even on a shard the
		// replacements above un-sealed, and leaves its state untouched.
		pfx := pool[rng.IntN(len(pool))]
		if err := eng.AcceptAnnouncement(e.announce(t, 101, 1, pfx, 2), obs.TraceContext{}); err == nil || !strings.Contains(err.Error(), "sealed") {
			t.Fatalf("window %d: accept after seal: %v", w+1, err)
		}
		if _, _, err := eng.SealDirty(); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("window %d", w+1))
	}
	if maxSize <= 32 {
		t.Errorf("no shard grew past 32 leaves (max %d)", maxSize)
	}
	for idx := range refilled {
		if !refilled[idx] {
			t.Errorf("shard %d was never emptied and refilled", idx)
		}
	}
}

// TestAcceptAfterSealFails: once the epoch is sealed, AcceptAnnouncement
// and AcceptAll fail until the next BeginEpoch, also on a shard that a
// streamed ReplacePrefix has un-sealed.
func TestAcceptAfterSealFails(t *testing.T) {
	e := newEnv(t, 1)
	eng := e.engine(t, 1, 8)
	eng.BeginEpoch(1)
	pfxs := testPrefixes(t, 3)
	if err := eng.AcceptAnnouncement(e.announce(t, 101, 1, pfxs[0], 2), obs.TraceContext{}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.SealEpoch(); err != nil {
		t.Fatal(err)
	}
	if err := eng.ReplacePrefix(pfxs[0], []core.Announcement{e.announce(t, 101, 1, pfxs[0], 3)}, obs.TraceContext{}); err != nil {
		t.Fatal(err)
	}
	if err := eng.AcceptAnnouncement(e.announce(t, 101, 1, pfxs[1], 2), obs.TraceContext{}); err == nil {
		t.Fatal("AcceptAnnouncement succeeded after SealEpoch")
	}
	if _, err := eng.AcceptAll([]core.Announcement{e.announce(t, 101, 1, pfxs[2], 2)}, 1); err == nil {
		t.Fatal("AcceptAll succeeded after SealEpoch")
	}
	if got := eng.PrefixCount(); got != 1 {
		t.Fatalf("refused accepts left %d prefixes, want 1", got)
	}
	eng.BeginEpoch(2)
	if err := eng.AcceptAnnouncement(e.announce(t, 101, 2, pfxs[1], 2), obs.TraceContext{}); err != nil {
		t.Fatalf("accept after BeginEpoch: %v", err)
	}
}
