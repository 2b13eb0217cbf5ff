// The detection properties of gossiped statements are checked here on the
// one detector every participant runs, auditnet.Store (and, for the
// exchange tests, the auditnet.Auditor around it). This is an external
// test package because auditnet imports gossip.
package gossip_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"pvr/internal/aspath"
	"pvr/internal/auditnet"
	"pvr/internal/gossip"
	"pvr/internal/netx"
	"pvr/internal/obs"
	"pvr/internal/sigs"
)

var (
	setupOnce sync.Once
	reg       *sigs.Registry
	signers   map[aspath.ASN]sigs.Signer
)

func setup(t *testing.T) {
	t.Helper()
	setupOnce.Do(func() {
		reg = sigs.NewRegistry()
		signers = map[aspath.ASN]sigs.Signer{}
		for _, asn := range []aspath.ASN{1, 2, 3} {
			s, err := sigs.GenerateEd25519()
			if err != nil {
				panic(err)
			}
			signers[asn] = s
			reg.Register(asn, s.Public())
		}
	})
}

func signed(t *testing.T, origin aspath.ASN, topic, payload string) gossip.Statement {
	t.Helper()
	sig, err := signers[origin].Sign([]byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	return gossip.Statement{Origin: origin, Topic: topic, Payload: []byte(payload), Sig: sig}
}

// add files s under epoch 1 in st.
func add(st *auditnet.Store, s gossip.Statement) (bool, *gossip.Conflict, error) {
	return st.AddRecord(auditnet.Record{Epoch: 1, S: s})
}

func auditor(t *testing.T, asn aspath.ASN, stmts ...gossip.Statement) *auditnet.Auditor {
	t.Helper()
	a, err := auditnet.New(auditnet.Config{ASN: asn, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stmts {
		if _, _, err := a.AddRecord(auditnet.Record{Epoch: 1, S: s}); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

// exchange runs one anti-entropy round between a (initiator) and b.
func exchange(t *testing.T, a, b *auditnet.Auditor) {
	t.Helper()
	ca, cb := netx.Pipe()
	defer ca.Close()
	defer cb.Close()
	errc := make(chan error, 1)
	go func() {
		_, err := b.Respond(cb)
		errc <- err
	}()
	if _, err := a.Reconcile(ca); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}

func TestPoolAcceptsValidRejectsForged(t *testing.T) {
	setup(t)
	st := auditnet.NewStore(reg)
	if _, _, err := add(st, signed(t, 1, "min/x/1", "commitment-bytes")); err != nil {
		t.Fatalf("valid statement rejected: %v", err)
	}
	// Forged signature.
	bad := signed(t, 1, "min/x/2", "other")
	bad.Sig[0] ^= 1
	if _, _, err := add(st, bad); err == nil {
		t.Error("forged statement accepted")
	}
	// Statement from unregistered origin.
	s := signed(t, 1, "t", "p")
	s.Origin = 99
	if _, _, err := add(st, s); err == nil {
		t.Error("unknown origin accepted")
	}
	if got := st.Records(); got != 1 {
		t.Errorf("store holds %d statements", got)
	}
}

func TestPoolIdempotentSameStatement(t *testing.T) {
	setup(t)
	st := auditnet.NewStore(reg)
	if _, _, err := add(st, signed(t, 1, "min/x/1", "same-bytes")); err != nil {
		t.Fatal(err)
	}
	// The same payload again (possibly re-signed) is not a conflict.
	added, c, err := add(st, signed(t, 1, "min/x/1", "same-bytes"))
	if err != nil || c != nil || added {
		t.Errorf("re-adding identical payload: added=%v conflict=%v err=%v", added, c, err)
	}
	if st.Records() != 1 || st.ConflictCount() != 0 {
		t.Error("identical payload stored twice or recorded as a conflict")
	}
}

func TestEquivocationDetected(t *testing.T) {
	setup(t)
	st := auditnet.NewStore(reg)
	if _, _, err := add(st, signed(t, 1, "min/x/1", "version-A")); err != nil {
		t.Fatal(err)
	}
	_, c, err := add(st, signed(t, 1, "min/x/1", "version-B"))
	if err != nil || c == nil {
		t.Fatalf("expected conflict, got %v, %v", c, err)
	}
	if c.Origin != 1 || c.Topic != "min/x/1" {
		t.Errorf("conflict = %+v", c)
	}
	// The conflict is judge-ready: it re-verifies from scratch.
	if err := c.Verify(reg); err != nil {
		t.Errorf("genuine conflict rejected: %v", err)
	}
	if !st.AddConflict(c, obs.TraceContext{}) || st.ConflictCount() != 1 {
		t.Error("conflict not recorded")
	}
}

func TestNoConflictAcrossTopicsOrOrigins(t *testing.T) {
	setup(t)
	st := auditnet.NewStore(reg)
	stmts := []gossip.Statement{
		signed(t, 1, "min/x/1", "A"),
		signed(t, 1, "min/x/2", "B"), // different topic
		signed(t, 2, "min/x/1", "C"), // different origin
	}
	for _, s := range stmts {
		if _, c, err := add(st, s); err != nil || c != nil {
			t.Fatalf("cross add: conflict=%v err=%v", c, err)
		}
	}
	if st.Records() != 3 {
		t.Errorf("store holds %d statements, want 3", st.Records())
	}
}

func TestExchangeSpreadsAndDetects(t *testing.T) {
	setup(t)
	// N1 got version A from the equivocator, N2 got version B. A gossip
	// exchange must surface the equivocation on at least one side.
	n1 := auditor(t, 101, signed(t, 3, "exists/y/9", "to-N1"))
	n2 := auditor(t, 102, signed(t, 3, "exists/y/9", "to-N2"))
	exchange(t, n1, n2)
	conflicts := append(n1.Evidence(), n2.Evidence()...)
	if len(conflicts) == 0 {
		t.Fatal("exchange missed the equivocation")
	}
	for _, c := range conflicts {
		if err := c.Verify(reg); err != nil {
			t.Errorf("conflict does not verify: %v", err)
		}
		if c.Origin != 3 {
			t.Errorf("accused %v", c.Origin)
		}
	}
}

func TestExchangeHonestNoConflicts(t *testing.T) {
	setup(t)
	n1 := auditor(t, 101, signed(t, 1, "min/z/1", "same"))
	n2 := auditor(t, 102)
	exchange(t, n1, n2)
	if cs := append(n1.Evidence(), n2.Evidence()...); len(cs) != 0 {
		t.Errorf("honest exchange produced conflicts: %v", cs)
	}
	// n2 now has the statement too.
	if n2.Store().Records() != 1 {
		t.Error("statement did not propagate")
	}
}

func TestForgedConflictRejected(t *testing.T) {
	setup(t)
	// Accuracy: an accuser cannot fabricate a conflict.
	a := signed(t, 1, "t", "same")
	b := signed(t, 1, "t", "same")
	c := &gossip.Conflict{Origin: 1, Topic: "t", A: a, B: b}
	if err := c.Verify(reg); err == nil {
		t.Error("identical-payload conflict verified")
	}
	// Statements signed by someone else.
	x := signed(t, 2, "t", "v1")
	y := signed(t, 2, "t", "v2")
	c2 := &gossip.Conflict{Origin: 1, Topic: "t", A: x, B: y}
	if err := c2.Verify(reg); err == nil {
		t.Error("conflict with wrong origin verified")
	}
	// Tampered payload breaks the signature.
	z := signed(t, 1, "t", "v1")
	z.Payload = []byte("v1-tampered")
	c3 := &gossip.Conflict{Origin: 1, Topic: "t", A: z, B: signed(t, 1, "t", "v2")}
	if err := c3.Verify(reg); err == nil {
		t.Error("tampered conflict verified")
	}
}

func TestRepeatedMergeDoesNotGrowConflicts(t *testing.T) {
	setup(t)
	// The same conflicting statement re-arrives on every exchange with the
	// same peer; the store must record the equivocation exactly once.
	st := auditnet.NewStore(reg)
	versionA := signed(t, 1, "min/x/1", "version-A")
	if _, _, err := add(st, versionA); err != nil {
		t.Fatal(err)
	}
	conflicting := signed(t, 1, "min/x/1", "version-B")
	var first *gossip.Conflict
	for i := 0; i < 10; i++ {
		_, c, err := add(st, conflicting)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if c == nil {
			continue // the topic is quarantined once its evidence is stored
		}
		if st.AddConflict(c, obs.TraceContext{}) != (first == nil) {
			t.Fatalf("round %d: known equivocation recorded again", i)
		}
		if first == nil {
			first = c
		}
	}
	if first == nil {
		t.Fatal("equivocation never detected")
	}
	if st.AddConflict(first, obs.TraceContext{}) {
		t.Fatal("identical evidence recorded twice")
	}
	if got := st.ConflictCount(); got != 1 {
		t.Fatalf("store holds %d conflicts after 10 re-arrivals, want 1", got)
	}
	// A genuinely different payload pair is distinct evidence.
	third := &gossip.Conflict{Origin: 1, Topic: "min/x/1", A: versionA, B: signed(t, 1, "min/x/1", "version-C")}
	if !st.AddConflict(third, obs.TraceContext{}) {
		t.Fatal("distinct payload pair deduplicated away")
	}
	if got := st.ConflictCount(); got != 2 {
		t.Fatalf("store holds %d conflicts, want 2 distinct equivocations", got)
	}
}

// TestStatementsCachedUntilAdd pins that the store's reconciliation
// digest moves only when a statement is added: duplicate and conflicting
// adds leave it alone, so two peers that agree stay in sync.
func TestStatementsCachedUntilAdd(t *testing.T) {
	setup(t)
	st := auditnet.NewStore(reg)
	if _, _, err := add(st, signed(t, 1, "a", "1")); err != nil {
		t.Fatal(err)
	}
	s1 := st.Summary().Store
	if st.Summary().Store != s1 {
		t.Error("repeated Summary() changed without an intervening add")
	}
	if _, _, err := add(st, signed(t, 2, "b", "2")); err != nil {
		t.Fatal(err)
	}
	s3 := st.Summary().Store
	if s3 == s1 {
		t.Fatal("new statement left the digest unchanged")
	}
	// Duplicate adds and conflicting adds do not move the digest.
	add(st, signed(t, 1, "a", "1"))
	add(st, signed(t, 1, "a", "other"))
	if st.Summary().Store != s3 {
		t.Error("no-op add changed the digest")
	}
}

func TestConflictVerifyAdversarial(t *testing.T) {
	setup(t)
	v1 := signed(t, 1, "t", "v1")
	v2 := signed(t, 1, "t", "v2")

	// Genuine conflict verifies (control).
	if err := (&gossip.Conflict{Origin: 1, Topic: "t", A: v1, B: v2}).Verify(reg); err != nil {
		t.Fatalf("genuine conflict rejected: %v", err)
	}
	// Accusation origin differs from the statements' origin.
	if err := (&gossip.Conflict{Origin: 2, Topic: "t", A: v1, B: v2}).Verify(reg); err == nil {
		t.Error("origin mismatch verified")
	}
	// Accusation topic differs from the statements' topic.
	if err := (&gossip.Conflict{Origin: 1, Topic: "other", A: v1, B: v2}).Verify(reg); err == nil {
		t.Error("topic mismatch verified")
	}
	// One statement's topic quietly swapped: same payloads, different topic
	// fields — must not convict for topic "t".
	crossTopic := signed(t, 1, "t2", "v2")
	if err := (&gossip.Conflict{Origin: 1, Topic: "t", A: v1, B: crossTopic}).Verify(reg); err == nil {
		t.Error("cross-topic statement pair verified")
	}
	// Forged signature on one side.
	forged := signed(t, 1, "t", "v2")
	forged.Sig = append([]byte(nil), forged.Sig...)
	forged.Sig[0] ^= 1
	if err := (&gossip.Conflict{Origin: 1, Topic: "t", A: v1, B: forged}).Verify(reg); err == nil {
		t.Error("forged-signature conflict verified")
	}
	// Statement signed by a different (registered) AS, origin field lies.
	other := signed(t, 2, "t", "v2")
	other.Origin = 1
	if err := (&gossip.Conflict{Origin: 1, Topic: "t", A: v1, B: other}).Verify(reg); err == nil {
		t.Error("wrong-signer statement verified")
	}
	// Unknown origin.
	u1, u2 := v1, v2
	u1.Origin, u2.Origin = 99, 99
	if err := (&gossip.Conflict{Origin: 99, Topic: "t", A: u1, B: u2}).Verify(reg); err == nil {
		t.Error("unknown-origin conflict verified")
	}
}

func TestPoolConcurrentAdds(t *testing.T) {
	setup(t)
	st := auditnet.NewStore(reg)
	s := signed(t, 1, "topic", "payload") // same everywhere: no conflicts
	var added atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				ok, c, err := add(st, s)
				if err != nil || c != nil {
					t.Errorf("add: conflict=%v err=%v", c, err)
				}
				if ok {
					added.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if added.Load() != 1 || st.Records() != 1 {
		t.Errorf("statement added %d times, store holds %d", added.Load(), st.Records())
	}
}
