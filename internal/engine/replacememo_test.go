package engine

import (
	"bytes"
	"errors"
	"testing"

	"pvr/internal/aspath"
	"pvr/internal/core"
	"pvr/internal/obs"
	"pvr/internal/sigs"
)

// TestReplacePrefixMemoRejectsTamperedCopy: with a verdict memo, an
// announcement ReplacePrefix already accepted is settled from the memo,
// but a copy with one signature bit flipped, or with its route changed
// under the same signature, is rejected, and the prefix keeps its sealed
// state.
func TestReplacePrefixMemoRejectsTamperedCopy(t *testing.T) {
	e := newEnv(t, 1)
	memo := sigs.NewVerifyMemo()
	eng, err := New(Config{ASN: tProver, Signer: e.signers[tProver], Registry: e.reg, Shards: 2, MaxLen: 16, Memo: memo})
	if err != nil {
		t.Fatal(err)
	}
	eng.BeginEpoch(1)
	pfx := testPrefixes(t, 1)[0]
	a := e.announce(t, 101, 1, pfx, 3)
	for i := 0; i < 2; i++ {
		if err := eng.ReplacePrefix(pfx, []core.Announcement{a}, obs.TraceContext{}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := eng.SealDirty(); err != nil {
			t.Fatal(err)
		}
	}
	if memo.Misses() != 1 || memo.Hits() != 1 {
		t.Fatalf("memo hits/misses = %d/%d, want 1/1", memo.Hits(), memo.Misses())
	}
	before, err := eng.Commitment(pfx)
	if err != nil {
		t.Fatal(err)
	}
	window := eng.Window()

	flipped := a
	flipped.Sig = bytes.Clone(a.Sig)
	flipped.Sig[7] ^= 0x01
	rerouted := a
	rerouted.Route.Path = aspath.New(101, 65001)
	for name, bad := range map[string]core.Announcement{"flipped signature bit": flipped, "changed route": rerouted} {
		if err := eng.ReplacePrefix(pfx, []core.Announcement{bad}, obs.TraceContext{}); !errors.Is(err, core.ErrBadAnnouncement) {
			t.Fatalf("%s: ReplacePrefix = %v, want ErrBadAnnouncement", name, err)
		}
	}
	after, err := eng.Commitment(pfx)
	if err != nil {
		t.Fatalf("prefix lost its sealed state: %v", err)
	}
	bb, _ := before.MC.SignedBytes()
	ab, _ := after.MC.SignedBytes()
	if after.Seal != before.Seal || !bytes.Equal(ab, bb) || eng.Window() != window {
		t.Fatal("a rejected replacement changed the sealed state")
	}
	if got, _ := eng.Providers(pfx); len(got) != 1 || got[0] != 101 {
		t.Fatalf("providers after rejections = %v, want [101]", got)
	}
}
