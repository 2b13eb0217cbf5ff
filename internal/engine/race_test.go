package engine

import (
	"strings"
	"sync"
	"testing"

	"pvr/internal/aspath"
	"pvr/internal/auditnet"
	"pvr/internal/core"
	"pvr/internal/evidence"
	"pvr/internal/gossip"
	"pvr/internal/obs"
	"pvr/internal/prefix"
)

// TestEngineConcurrentStress drives one engine from many goroutines:
// concurrent AcceptAnnouncement across prefixes, concurrent idempotent
// SealEpoch calls, and concurrent disclosure + pipeline verification.
// Run under -race (CI does).
func TestEngineConcurrentStress(t *testing.T) {
	const (
		k       = 2
		nPfx    = 192
		writers = 8
	)
	e := newEnv(t, k)
	eng := e.engine(t, 8, 12)
	eng.BeginEpoch(1)

	pfxs := testPrefixes(t, nPfx)
	anns := make([]core.Announcement, 0, nPfx*k)
	for i, pfx := range pfxs {
		for j := 0; j < k; j++ {
			anns = append(anns, e.announce(t, aspath.ASN(101+j), 1, pfx, 1+(i+j)%12))
		}
	}

	// Phase 1: concurrent accepts across all shards.
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(anns); i += writers {
				if _, err := eng.AcceptAnnouncement(anns[i], obs.TraceContext{}); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Phase 2: concurrent seals must agree (idempotent, one root set).
	roots := make([][]*Seal, 4)
	for i := range roots {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := eng.SealEpoch()
			if err != nil {
				t.Error(err)
				return
			}
			roots[i] = s
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(roots); i++ {
		if len(roots[i]) != len(roots[0]) {
			t.Fatalf("seal call %d returned %d seals, call 0 returned %d", i, len(roots[i]), len(roots[0]))
		}
		for j := range roots[i] {
			if roots[i][j].Root != roots[0][j].Root {
				t.Fatalf("concurrent seals disagree on shard %d", j)
			}
		}
	}

	// Phase 3: concurrent disclosure feeding a shared pipeline.
	pl := NewPipeline(e.reg, 8)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(anns); i += writers {
				a := anns[i]
				v, err := eng.DiscloseToProvider(a.Route.Prefix, a.Provider)
				if err != nil {
					t.Error(err)
					return
				}
				pl.SubmitProvider(v, a)
			}
		}(w)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(pfxs); i += writers {
				v, err := eng.DiscloseToPromisee(pfxs[i], tPromisee)
				if err != nil {
					t.Error(err)
					return
				}
				pl.SubmitPromisee(v, tPromisee)
			}
		}(w)
	}
	wg.Wait()
	results := pl.Drain()
	if want := len(anns) + len(pfxs); len(results) != want {
		t.Fatalf("pipeline returned %d results, want %d", len(results), want)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s neighbor %s: %v", r.Prefix, r.Neighbor, r.Err)
		}
	}
}

// TestEngineAcceptRacesSeal lets accepts race the epoch seal: every accept
// must either land in the sealed batch or fail cleanly with an
// "already sealed" error — never corrupt state.
func TestEngineAcceptRacesSeal(t *testing.T) {
	e := newEnv(t, 1)
	eng := e.engine(t, 4, 8)
	eng.BeginEpoch(1)
	pfxs := testPrefixes(t, 128)
	anns := make([]core.Announcement, len(pfxs))
	for i, pfx := range pfxs {
		anns[i] = e.announce(t, 101, 1, pfx, 1+i%8)
	}

	var wg sync.WaitGroup
	accepted := make([]bool, len(anns))
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(anns); i += 4 {
				_, err := eng.AcceptAnnouncement(anns[i], obs.TraceContext{})
				switch {
				case err == nil:
					accepted[i] = true
				case strings.Contains(err.Error(), "sealed"):
				default:
					t.Errorf("accept %d: %v", i, err)
				}
			}
		}(w)
	}
	wg.Add(1)
	var seals []*Seal
	go func() {
		defer wg.Done()
		var err error
		if seals, err = eng.SealEpoch(); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()

	var want uint32
	for _, ok := range accepted {
		if ok {
			want++
		}
	}
	// The seal may cover more than the accepts that returned before it
	// (a racing accept can land after the goroutine's local count), but
	// every acknowledged accept must be sealed and verifiable.
	var sealed uint32
	for _, s := range seals {
		if err := s.Verify(e.reg); err != nil {
			t.Fatal(err)
		}
		sealed += s.Count
	}
	if sealed < want {
		t.Fatalf("seals cover %d prefixes, but %d accepts were acknowledged", sealed, want)
	}
	for i, ok := range accepted {
		if !ok {
			continue
		}
		v, err := eng.DiscloseToProvider(pfxs[i], 101)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyProviderView(e.reg, v, anns[i]); err != nil {
			t.Fatalf("%s: %v", pfxs[i], err)
		}
	}
}

// TestCrossShardEquivocationDetection proves gossip still catches an
// equivocating prover when the commitments the two witnesses hold come
// from different shards. The prover maintains two sealed tables for the
// same epoch (commitments are blinded, so any two independently built
// tables differ — maintaining more than one is exactly the equivocation
// the protocol forbids). Neighbor X verifies a prefix in shard i of table
// A; neighbor Y verifies a prefix in a different shard j of table B. Each
// received the full seal set alongside its disclosure; one gossip exchange
// later both shards' seals are in conflict and a third-party judge
// convicts.
func TestCrossShardEquivocationDetection(t *testing.T) {
	const nPfx = 32
	e := newEnv(t, 1)
	pfxs := testPrefixes(t, nPfx)

	build := func() *ProverEngine {
		eng := e.engine(t, 4, 8)
		eng.BeginEpoch(1)
		for i, pfx := range pfxs {
			if _, err := eng.AcceptAnnouncement(e.announce(t, 101, 1, pfx, 1+i%8), obs.TraceContext{}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := eng.SealEpoch(); err != nil {
			t.Fatal(err)
		}
		return eng
	}

	tableA, tableB := build(), build()

	// Pick two prefixes living in different shards; X's material comes
	// from table A's shard i, Y's from table B's shard j.
	pfxX := pfxs[0]
	_, shardX, err := tableA.shardOf(pfxX)
	if err != nil {
		t.Fatal(err)
	}
	var (
		pfxY   prefix.Prefix
		shardY uint32
	)
	for _, pfx := range pfxs[1:] {
		if _, idx, err := tableB.shardOf(pfx); err != nil {
			t.Fatal(err)
		} else if idx != shardX {
			pfxY, shardY = pfx, idx
			break
		}
	}
	if !pfxY.IsValid() {
		t.Fatal("all test prefixes hash to one shard; widen the prefix set")
	}

	// Both disclosures verify in isolation — equivocation is invisible to
	// a single neighbor.
	vX, err := tableA.DiscloseToPromisee(pfxX, tPromisee)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyPromiseeView(e.reg, vX); err != nil {
		t.Fatalf("X's view: %v", err)
	}
	vY, err := tableB.DiscloseToPromisee(pfxY, 101)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyPromiseeView(e.reg, vY); err != nil {
		t.Fatalf("Y's view: %v", err)
	}

	// Each neighbor's audit store holds the seal set it was served, then
	// they gossip.
	conflicts := gossipRound(t, e, tableA, tableB)
	if len(conflicts) == 0 {
		t.Fatal("gossip found no conflicts between the two tables")
	}
	conflictShards := map[string]bool{}
	for _, c := range conflicts {
		conflictShards[c.Topic] = true
	}
	for _, want := range []string{
		(&Seal{Prover: tProver, Epoch: 1, Shard: shardX, Shards: 4}).GossipTopic(),
		(&Seal{Prover: tProver, Epoch: 1, Shard: shardY, Shards: 4}).GossipTopic(),
	} {
		if !conflictShards[want] {
			t.Fatalf("no conflict on topic %q (have %v)", want, conflictShards)
		}
	}
	c := conflicts[0]

	// The conflict is judge-ready transferable evidence.
	verdict, why, err := evidence.Judge(e.reg, &evidence.Evidence{
		Kind: evidence.KindEquivocation, Accused: tProver, Accuser: 101, Conflict: c,
	})
	if err != nil {
		t.Fatal(err)
	}
	if verdict != evidence.Guilty {
		t.Fatalf("judge: %s (%s), want guilty", verdict, why)
	}

	// Layout equivocation: a second table for the same epoch with a
	// different shard count must also conflict — every layout publishes a
	// shard-0 seal (empty shards included), and the signed Shards field
	// differs, so the shard-0 topics collide with different payloads.
	otherLayout := e.engine(t, 8, 8)
	otherLayout.BeginEpoch(1)
	if _, err := otherLayout.AcceptAnnouncement(e.announce(t, 101, 1, pfxs[0], 2), obs.TraceContext{}); err != nil {
		t.Fatal(err)
	}
	if _, err := otherLayout.SealEpoch(); err != nil {
		t.Fatal(err)
	}
	if got := gossipRound(t, e, tableA, otherLayout); len(got) == 0 {
		t.Fatal("different shard layouts for one epoch produced no gossip conflict")
	}

	// Accuracy: an honest prover gossiped to both neighbors conflicts with
	// nothing.
	if got := gossipRound(t, e, tableA, tableA); len(got) != 0 {
		t.Fatalf("honest seals produced %d conflicts", len(got))
	}
}

// gossipRound gives each of two neighbors an audit store holding the seal
// set it was served, then feeds each store the other's seals — one gossip
// exchange — and returns every equivocation either side detects.
func gossipRound(t *testing.T, e *env, x, y *ProverEngine) []*gossip.Conflict {
	t.Helper()
	var out []*gossip.Conflict
	// Each store takes in its own neighbor's seals first, then the other's.
	for _, feed := range [][2]*ProverEngine{{x, y}, {y, x}} {
		st := auditnet.NewStore(e.reg)
		for _, eng := range feed {
			for _, s := range eng.Seals() {
				_, c, err := st.AddRecord(auditnet.Record{Epoch: s.Epoch, S: s.Statement()})
				if err != nil {
					t.Fatal(err)
				}
				if c != nil {
					out = append(out, c)
				}
			}
		}
	}
	return out
}
