package merkle

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func msgs(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("update-%d", i))
	}
	return out
}

func TestBatchProveVerifyAll(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 16, 33, 100} {
		ms := msgs(n)
		b, err := NewBatch(ms)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if b.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, b.Len())
		}
		root := b.Root()
		for i := 0; i < n; i++ {
			p, err := b.Prove(i)
			if err != nil {
				t.Fatalf("n=%d i=%d: %v", n, i, err)
			}
			if err := VerifyBatch(root, ms[i], p); err != nil {
				t.Errorf("n=%d i=%d: %v", n, i, err)
			}
		}
	}
}

func TestBatchRejects(t *testing.T) {
	if _, err := NewBatch(nil); err != ErrEmptyTree {
		t.Errorf("empty batch: %v", err)
	}
	ms := msgs(8)
	b, err := NewBatch(ms)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Prove(-1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := b.Prove(8); err == nil {
		t.Error("out-of-range index accepted")
	}
	root := b.Root()
	p, err := b.Prove(3)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong message.
	if VerifyBatch(root, []byte("other"), p) == nil {
		t.Error("wrong message accepted")
	}
	// Same message claimed at a different index fails: index is in the leaf.
	bad := *p
	bad.Index = 4
	if VerifyBatch(root, ms[3], &bad) == nil {
		t.Error("index substitution accepted")
	}
	// Duplicate message at two indexes still position-bound.
	dup, err := NewBatch([][]byte{[]byte("same"), []byte("same")})
	if err != nil {
		t.Fatal(err)
	}
	p0, err := dup.Prove(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyBatch(dup.Root(), []byte("same"), p0); err != nil {
		t.Errorf("dup proof rejected: %v", err)
	}
}

func TestBatchPaddingNotProvable(t *testing.T) {
	// n=5 pads to 8; the padded leaves must not be addressable.
	b, err := NewBatch(msgs(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Prove(5); err == nil {
		t.Error("padding leaf provable")
	}
}

func TestBatchProofMarshalRoundTrip(t *testing.T) {
	b, err := NewBatch(msgs(20))
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Prove(13)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := p.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var q BatchProof
	if err := q.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	if err := VerifyBatch(b.Root(), msgs(20)[13], &q); err != nil {
		t.Errorf("round-tripped proof rejected: %v", err)
	}
	var bad BatchProof
	if err := bad.UnmarshalBinary(enc[:5]); err == nil {
		t.Error("truncation accepted")
	}
	if err := bad.UnmarshalBinary(append(enc, 1)); err == nil {
		t.Error("trailing byte accepted")
	}
}

func TestQuickBatchEveryIndexVerifies(t *testing.T) {
	f := func(seed uint8) bool {
		n := int(seed%60) + 1
		ms := msgs(n)
		b, err := NewBatch(ms)
		if err != nil {
			return false
		}
		i := int(seed) % n
		p, err := b.Prove(i)
		if err != nil {
			return false
		}
		return VerifyBatch(b.Root(), ms[i], p) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBatchProofLengthLogarithmic(t *testing.T) {
	b, err := NewBatch(msgs(1024))
	if err != nil {
		t.Fatal(err)
	}
	p, err := b.Prove(500)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Siblings) != 10 { // log2(1024)
		t.Errorf("proof length = %d, want 10", len(p.Siblings))
	}
}

// TestBatchUpdateMatchesNewBatch: a tree updated in place through random
// replacements, insertions and removals, growing past and shrinking below
// powers of two (parallel-hashed sizes included) and emptied and refilled,
// equals NewBatch over the same messages: root and every proof.
func TestBatchUpdateMatchesNewBatch(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	serial := 0
	fresh := func() []byte { serial++; return []byte(fmt.Sprintf("msg-%d", serial)) }
	var b Batch
	var built, cur [][]byte
	for _, target := range []int{5, 8, 9, 17, 16, 3, 1, 0, 40, 600, 1030, 1024, 700, 2} {
		for step := 0; step < 4; step++ {
			for r := rng.IntN(4); r > 0 && len(cur) > 0; r-- {
				cur[rng.IntN(len(cur))] = fresh()
			}
			for len(cur) < target {
				cur = slices.Insert(cur, rng.IntN(len(cur)+1), fresh())
			}
			for len(cur) > target {
				i := rng.IntN(len(cur))
				cur = slices.Delete(cur, i, i+1)
			}
			if len(cur) == 0 {
				b, built = Batch{}, nil
				continue
			}
			var changed []int
			for i := range cur {
				if i >= len(built) || string(cur[i]) != string(built[i]) {
					changed = append(changed, i)
				}
			}
			if err := b.Update(len(cur), changed, func(i int) []byte { return cur[i] }); err != nil {
				t.Fatalf("n=%d: %v", len(cur), err)
			}
			built = slices.Clone(cur)
			want, err := NewBatch(cur)
			if err != nil {
				t.Fatal(err)
			}
			if b.Root() != want.Root() || b.Len() != want.Len() {
				t.Fatalf("n=%d, %d changed: root %s, want %s", len(cur), len(changed), b.Root(), want.Root())
			}
			for i := range cur {
				got, _ := b.Prove(i)
				exp, _ := want.Prove(i)
				if !slices.Equal(got.Siblings, exp.Siblings) {
					t.Fatalf("n=%d: proof %d differs from NewBatch", len(cur), i)
				}
			}
		}
	}
}

func TestBatchUpdateRejects(t *testing.T) {
	ms := msgs(6)
	msg := func(i int) []byte { return ms[i] }
	var b Batch
	if err := b.Update(0, nil, msg); err != ErrEmptyTree {
		t.Errorf("empty update: %v", err)
	}
	if err := b.Update(4, []int{0, 1, 2}, msg); err == nil {
		t.Error("a new position left unhashed was accepted")
	}
	if err := b.Update(4, []int{0, 1, 2, 3}, msg); err != nil {
		t.Fatal(err)
	}
	for _, changed := range [][]int{{1, 0, 4}, {2, 2, 4}, {-1, 4}, {4, 5}, {3}} {
		if err := b.Update(5, changed, msg); err == nil {
			t.Errorf("changed %v accepted", changed)
		}
	}
	if b.Len() != 4 {
		t.Errorf("rejected updates changed the tree: Len %d", b.Len())
	}
}
