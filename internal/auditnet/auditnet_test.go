package auditnet

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pvr/internal/aspath"
	"pvr/internal/gossip"
	"pvr/internal/netx"
	"pvr/internal/obs"
	"pvr/internal/sigs"
)

// testPKI builds a registry with n signing nodes at ASNs 1..n.
type testPKI struct {
	reg     *sigs.Registry
	signers map[aspath.ASN]sigs.Signer
}

func newTestPKI(t testing.TB, n int) *testPKI {
	t.Helper()
	p := &testPKI{reg: sigs.NewRegistry(), signers: map[aspath.ASN]sigs.Signer{}}
	for i := 1; i <= n; i++ {
		asn := aspath.ASN(i)
		s, err := sigs.GenerateEd25519()
		if err != nil {
			t.Fatal(err)
		}
		p.signers[asn] = s
		p.reg.Register(asn, s.Public())
	}
	return p
}

func (p *testPKI) record(t *testing.T, origin aspath.ASN, epoch uint64, topic, payload string) Record {
	t.Helper()
	sig, err := p.signers[origin].Sign([]byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	return Record{Epoch: epoch, S: gossip.Statement{
		Origin: origin, Topic: topic, Payload: []byte(payload), Sig: sig,
	}}
}

func (p *testPKI) auditor(t *testing.T, asn aspath.ASN) *Auditor {
	t.Helper()
	a, err := New(Config{ASN: asn, Registry: p.reg})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// runPair performs one anti-entropy exchange between a (initiator) and b
// (responder) over an unbuffered rendezvous pipe.
func runPair(t *testing.T, a, b *Auditor) (*Stats, *Stats) {
	t.Helper()
	ca, cb := netx.Pipe()
	defer ca.Close()
	defer cb.Close()
	done := make(chan struct{})
	var bs *Stats
	var berr error
	go func() {
		defer close(done)
		bs, berr = b.Respond(cb)
	}()
	as, aerr := a.Reconcile(ca)
	<-done
	if aerr != nil {
		t.Fatalf("initiator: %v", aerr)
	}
	if berr != nil {
		t.Fatalf("responder: %v", berr)
	}
	return as, bs
}

func TestExchangeSpreadsStatements(t *testing.T) {
	p := newTestPKI(t, 4)
	a := p.auditor(t, 1)
	b := p.auditor(t, 2)
	for i := 0; i < 5; i++ {
		rec := p.record(t, 3, 7, fmt.Sprintf("seal/3/7/%d", i), fmt.Sprintf("root-%d", i))
		if added, _, err := a.AddRecord(rec); err != nil || !added {
			t.Fatalf("seed: added=%v err=%v", added, err)
		}
	}
	as, _ := runPair(t, a, b)
	if as.InSync {
		t.Fatal("unsynchronized stores reported in sync")
	}
	if b.Store().Records() != 5 {
		t.Fatalf("b has %d records, want 5", b.Store().Records())
	}

	// Second round: nothing to do, constant-size summary exchange.
	as2, _ := runPair(t, a, b)
	if !as2.InSync {
		t.Fatal("synchronized stores not detected by summary digest")
	}
	if as2.Frames != 2 {
		t.Fatalf("in-sync round used %d frames, want 2", as2.Frames)
	}
	if as2.Bytes() > 256 {
		t.Fatalf("in-sync round moved %d bytes, want tiny constant", as2.Bytes())
	}
}

func TestExchangeShipsOnlyDelta(t *testing.T) {
	p := newTestPKI(t, 3)
	a := p.auditor(t, 1)
	b := p.auditor(t, 2)
	// Large shared base in epoch 1.
	for i := 0; i < 50; i++ {
		rec := p.record(t, 3, 1, fmt.Sprintf("seal/3/1/%d", i), fmt.Sprintf("root-%d", i))
		for _, n := range []*Auditor{a, b} {
			if _, _, err := n.AddRecord(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	// One new statement at a (epoch 2).
	if _, _, err := a.AddRecord(p.record(t, 3, 2, "seal/3/2/0", "root-new")); err != nil {
		t.Fatal(err)
	}
	as, bs := runPair(t, a, b)
	if as.StatementsSent != 1 {
		t.Fatalf("initiator shipped %d statements, want only the delta (1)", as.StatementsSent)
	}
	if bs.NewStatements != 1 {
		t.Fatalf("responder ingested %d new statements, want 1", bs.NewStatements)
	}
	// The delta round must not re-ship or re-digest the shared 50-statement
	// base at statement granularity: total traffic stays well under the
	// base's encoded size.
	if as.Bytes() > 2048 {
		t.Fatalf("delta round moved %d bytes; reconciliation is not O(delta)", as.Bytes())
	}
}

func TestExchangeDetectsAndPropagatesEquivocation(t *testing.T) {
	p := newTestPKI(t, 5)
	a := p.auditor(t, 1)
	b := p.auditor(t, 2)
	c := p.auditor(t, 3)
	equivocator := aspath.ASN(5)
	// The equivocator told a one thing and b another for the same topic.
	if _, _, err := a.AddRecord(p.record(t, equivocator, 9, "seal/5/9/0", "version-A")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.AddRecord(p.record(t, equivocator, 9, "seal/5/9/0", "version-B")); err != nil {
		t.Fatal(err)
	}
	runPair(t, a, b)
	if !a.Convicted(equivocator) || !b.Convicted(equivocator) {
		t.Fatalf("equivocator not convicted on both sides: a=%v b=%v",
			a.Convicted(equivocator), b.Convicted(equivocator))
	}
	// Third party learns the conviction from evidence alone.
	runPair(t, c, a)
	if !c.Convicted(equivocator) {
		t.Fatal("evidence did not propagate to third party")
	}
	if n := len(c.Evidence()); n != 1 {
		t.Fatalf("third party holds %d evidence records, want 1", n)
	}
	// Evidence is judge-ready: it re-verifies from scratch.
	if err := c.Evidence()[0].Verify(p.reg); err != nil {
		t.Fatalf("propagated evidence does not verify: %v", err)
	}
	// Stores converge after the conflicted topic is quarantined.
	runPair(t, a, b)
	if as, _ := runPair(t, a, b); !as.InSync {
		t.Fatal("stores with quarantined topic did not converge")
	}
}

func TestForgedEvidenceRejected(t *testing.T) {
	p := newTestPKI(t, 3)
	a := p.auditor(t, 1)
	// Identical payloads: no equivocation.
	r1 := p.record(t, 2, 1, "t", "same")
	r2 := p.record(t, 2, 1, "t", "same")
	c := &gossip.Conflict{Origin: 2, Topic: "t", A: r1.S, B: r2.S}
	if _, err := a.HandleConflict(c, obs.TraceContext{}); err == nil {
		t.Error("identical-payload evidence accepted")
	}
	// Statements signed by someone other than the accused.
	x := p.record(t, 3, 1, "t", "v1")
	y := p.record(t, 3, 1, "t", "v2")
	c2 := &gossip.Conflict{Origin: 2, Topic: "t", A: x.S, B: y.S}
	if _, err := a.HandleConflict(c2, obs.TraceContext{}); err == nil {
		t.Error("wrong-origin evidence accepted")
	}
	if a.Convicted(2) || a.Store().ConflictCount() != 0 {
		t.Error("forged evidence left state behind")
	}
}

func TestRejectUnknownOriginStatement(t *testing.T) {
	p := newTestPKI(t, 2)
	a := p.auditor(t, 1)
	rec := p.record(t, 2, 1, "t", "x")
	rec.S.Origin = 99 // not registered
	if _, _, err := a.AddRecord(rec); err == nil {
		t.Fatal("statement from unknown origin accepted")
	}
}

func TestLedgerPersistsConvictionAcrossReload(t *testing.T) {
	p := newTestPKI(t, 4)
	dir := t.TempDir()
	path := filepath.Join(dir, "audit.ledger")

	led, recs, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh ledger replayed %d records", len(recs))
	}
	a, err := New(Config{ASN: 1, Registry: p.reg, Ledger: led})
	if err != nil {
		t.Fatal(err)
	}
	equivocator := aspath.ASN(4)
	v1 := p.record(t, equivocator, 3, "seal/4/3/0", "version-A")
	v2 := p.record(t, equivocator, 3, "seal/4/3/0", "version-B")
	if _, _, err := a.AddRecord(v1); err != nil {
		t.Fatal(err)
	}
	if _, conflict, err := a.AddRecord(v2); err != nil || conflict == nil {
		t.Fatalf("conflict not detected: %v %v", conflict, err)
	}
	if !a.Convicted(equivocator) {
		t.Fatal("no conviction")
	}
	led.Close()

	// Reload: the conviction must be rebuilt from verified evidence alone.
	led2, recs2, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	defer led2.Close()
	if len(recs2) != 1 {
		t.Fatalf("replayed %d records, want 1", len(recs2))
	}
	a2, err := New(Config{ASN: 1, Registry: p.reg, Ledger: led2, Replay: recs2})
	if err != nil {
		t.Fatal(err)
	}
	if !a2.Convicted(equivocator) {
		t.Fatal("conviction did not survive reload")
	}
	if a2.Store().ConflictCount() != 1 {
		t.Fatal("evidence did not survive reload")
	}
}

func TestLedgerTamperFailsReplay(t *testing.T) {
	p := newTestPKI(t, 3)
	dir := t.TempDir()
	path := filepath.Join(dir, "audit.ledger")
	led, _, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(Config{ASN: 1, Registry: p.reg, Ledger: led})
	if err != nil {
		t.Fatal(err)
	}
	v1 := p.record(t, 3, 1, "t", "version-A")
	v2 := p.record(t, 3, 1, "t", "version-B")
	a.AddRecord(v1)
	a.AddRecord(v2)
	led.Close()

	// Flip one payload byte inside the stored evidence. The WAL's record
	// CRC catches a naive flip: the damaged record reads as a torn tail
	// and is dropped rather than replayed as evidence. (An adversary who
	// recomputes the CRC is caught by signature verification instead —
	// see TestLedgerTamperWithFixedCRCFailsAuditorReplay.)
	seg := newestSegment(t, path)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	tampered := false
	for i := len(raw) - 1; i >= 0; i-- {
		if raw[i] == 'A' { // "version-A" payload byte
			raw[i] = 'X'
			tampered = true
			break
		}
	}
	if !tampered {
		t.Fatal("could not locate payload byte to tamper")
	}
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	led2, recs2, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	defer led2.Close()
	if len(recs2) != 0 {
		t.Fatalf("tampered record survived framing: %d records replayed", len(recs2))
	}
}

func TestLedgerTornTailTruncated(t *testing.T) {
	p := newTestPKI(t, 3)
	dir := t.TempDir()
	path := filepath.Join(dir, "audit.ledger")
	led, _, err := OpenLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(Config{ASN: 1, Registry: p.reg, Ledger: led})
	if err != nil {
		t.Fatal(err)
	}
	a.AddRecord(p.record(t, 3, 1, "t", "version-A"))
	a.AddRecord(p.record(t, 3, 1, "t", "version-B"))
	led.Close()

	// Simulate a crash mid-append: chop the last 3 bytes of the newest
	// WAL segment.
	seg := newestSegment(t, path)
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	led2, recs2, err := OpenLedger(path)
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	defer led2.Close()
	if len(recs2) != 0 {
		t.Fatalf("torn record replayed: %d records", len(recs2))
	}
	// The file was truncated to a frame boundary; appends work again.
	a2, err := New(Config{ASN: 1, Registry: p.reg, Ledger: led2})
	if err != nil {
		t.Fatal(err)
	}
	a2.AddRecord(p.record(t, 3, 1, "t", "version-A"))
	if _, conflict, err := a2.AddRecord(p.record(t, 3, 1, "t", "version-B")); err != nil || conflict == nil {
		t.Fatalf("append after truncation failed: %v %v", conflict, err)
	}
}

func TestConvictionSurvivesLedgerAppendFailure(t *testing.T) {
	p := newTestPKI(t, 3)
	led, _, err := OpenLedger(filepath.Join(t.TempDir(), "audit.ledger"))
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(Config{ASN: 1, Registry: p.reg, Ledger: led})
	if err != nil {
		t.Fatal(err)
	}
	led.Close() // every append from here on fails
	if _, _, err := a.AddRecord(p.record(t, 3, 1, "t", "version-A")); err != nil {
		t.Fatal(err)
	}
	_, _, err = a.AddRecord(p.record(t, 3, 1, "t", "version-B"))
	if err == nil {
		t.Fatal("ledger append failure not surfaced")
	}
	// The in-memory conviction must stand despite the persistence failure.
	if !a.Convicted(3) {
		t.Fatal("ledger failure suppressed the conviction")
	}
}

func TestEpochRefilingRejected(t *testing.T) {
	// A relaying peer could alter the (unauthenticated) filing epoch of a
	// validly signed statement; the store must not let one statement occupy
	// multiple epoch groups.
	p := newTestPKI(t, 2)
	a := p.auditor(t, 1)
	rec := p.record(t, 2, 1, "t", "x")
	if added, _, err := a.AddRecord(rec); err != nil || !added {
		t.Fatalf("added=%v err=%v", added, err)
	}
	refiled := rec
	refiled.Epoch = 99
	if added, _, err := a.AddRecord(refiled); err != nil || added {
		t.Fatalf("refiled statement accepted under new epoch: added=%v err=%v", added, err)
	}
	if a.Store().Records() != 1 {
		t.Fatalf("store holds %d records, want 1", a.Store().Records())
	}
}

// TestLedgerRefusesRegularFile: the ledger is a directory of WAL
// segments. A regular file at its path is refused with an error and left
// byte for byte as it was — never replaced by a silently empty ledger,
// which would forget every conviction the file might hold.
func TestLedgerRefusesRegularFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.ledger")
	orig := []byte{0, 0, 0}
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	if led, recs, err := OpenLedger(path); err == nil {
		led.Close()
		t.Fatalf("opened a regular file as a ledger (%d records)", len(recs))
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("file at the ledger path is gone: %v", err)
	}
	if !bytes.Equal(got, orig) {
		t.Fatalf("file at the ledger path rewritten: %x", got)
	}
}

func TestServeAndWantsBudgetBounded(t *testing.T) {
	p := newTestPKI(t, 2)
	a := p.auditor(t, 1)
	b := p.auditor(t, 2)
	// Give a far more than one budget's worth of statements (~1.6 MiB of
	// payload across 2 groups), then reconcile repeatedly: every exchange
	// must stay under netx.MaxFrame and b must still converge.
	big := make([]byte, 16*1024)
	for i := 0; i < 100; i++ {
		payload := append([]byte(nil), big...)
		payload[0] = byte(i)
		sig, err := p.signers[1].Sign(payload)
		if err != nil {
			t.Fatal(err)
		}
		rec := Record{Epoch: uint64(1 + i%2), S: gossip.Statement{
			Origin: 1, Topic: fmt.Sprintf("t/%d", i), Payload: payload, Sig: sig,
		}}
		if _, _, err := a.AddRecord(rec); err != nil {
			t.Fatal(err)
		}
	}
	for round := 1; ; round++ {
		st, _ := runPair(t, b, a)
		if st.InSync {
			break
		}
		if round > 10 {
			t.Fatal("budget-bounded reconciliation did not converge")
		}
	}
	if b.Store().Records() != 100 {
		t.Fatalf("b holds %d records, want 100", b.Store().Records())
	}
}

func TestExchangeOverBufferedLink(t *testing.T) {
	// The same exchange code must run over the simulator's buffered Link
	// endpoints (the in-process transport netsim uses at scale).
	p := newTestPKI(t, 3)
	a := p.auditor(t, 1)
	b := p.auditor(t, 2)
	if _, _, err := a.AddRecord(p.record(t, 3, 1, "t1", "x")); err != nil {
		t.Fatal(err)
	}
	link, ea, eb := netx.NewLink(16)
	defer link.Close()
	done := make(chan error, 1)
	go func() {
		_, err := b.Respond(eb)
		done <- err
	}()
	if _, err := a.Reconcile(ea); err != nil {
		t.Fatalf("initiator over link: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("responder over link: %v", err)
	}
	if b.Store().Records() != 1 {
		t.Fatal("statement did not cross the link")
	}
}
