package pvr

// White-box test of the participant's verdict memo: one VerifyMemo spans
// the gossip observe path (the auditor verifies statements through it),
// BGP-carried seal checks, and the disclosure query plane. A seal whose
// signature was settled when it arrived via gossip must NOT be re-verified
// when a later disclosure query fetches the same seal — the whole point of
// sharing the memo across planes — and a view fetched a second time must
// cost no signature verification at all.

import (
	"context"
	"testing"
	"time"

	"pvr/internal/auditnet"
	"pvr/internal/sigs"
)

func TestGossipVerifiedSealNotReverifiedOnQuery(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	tr := NewMemTransport()
	reg := sigs.NewRegistry()
	pfx := MustParsePrefix("203.0.113.0/24")

	a, err := Open(ctx,
		WithASN(64500),
		WithTransport(tr),
		WithRegistry(reg),
		WithOriginate(pfx),
		WithShards(2),
		WithHoldTime(0),
		WithDiscloseListen("sealmemo-a"),
		WithPromisees(64502),
		WithLogf(t.Logf),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Open(ctx,
		WithASN(64502),
		WithTransport(tr),
		WithRegistry(reg),
		WithHoldTime(0),
		WithLogf(t.Logf),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// B hears A's shard seal through gossip first. The auditor verifies
	// the statement against the shared registry THROUGH the shared memo,
	// so the verdict is settled once here.
	sc, err := a.Engine().Commitment(pfx)
	if err != nil {
		t.Fatal(err)
	}
	st := sc.Seal.Statement()
	added, conflict, err := b.Auditor().AddRecord(auditnet.Record{Epoch: sc.Seal.Epoch, S: st})
	if err != nil || conflict != nil || !added {
		t.Fatalf("gossip ingest: added=%v conflict=%v err=%v", added, conflict, err)
	}
	if !b.verdicts.Seen(st.Origin, st.Payload, st.Sig) {
		t.Fatal("gossip-verified seal statement is not in the shared memo")
	}
	missesAfterGossip := b.verdicts.Misses()
	if missesAfterGossip == 0 {
		t.Fatal("gossip ingest bypassed the shared memo entirely")
	}

	// The disclosure query fetches the very seal gossip already settled:
	// the view's seal check and the observe-statement check must both be
	// memo hits. The only signatures new to B are the two statements a
	// promisee view carries: the winning announcement and the export.
	hitsBefore := b.verdicts.Hits()
	d, err := b.RequestDisclosure(ctx, a.DiscloseAddr(), pfx, 1)
	if err != nil {
		t.Fatalf("promisee query: %v", err)
	}
	if d.Promisee == nil {
		t.Fatalf("promisee disclosure malformed: %+v", d)
	}
	if got := b.verdicts.Misses(); got != missesAfterGossip+2 {
		t.Fatalf("first view: misses %d -> %d, want +2 (winner and export; the seal is gossip-settled)", missesAfterGossip, got)
	}
	if b.verdicts.Hits() <= hitsBefore {
		t.Fatal("query did not consult the verdict memo")
	}
	// The same view again: every verdict is settled.
	if _, err := b.RequestDisclosure(ctx, a.DiscloseAddr(), pfx, 1); err != nil {
		t.Fatalf("repeat promisee query: %v", err)
	}
	if got := b.verdicts.Misses(); got != missesAfterGossip+2 {
		t.Fatalf("repeat view verified a signature again: misses %d -> %d", missesAfterGossip+2, got)
	}
}
