package zkp

import (
	"math/big"
	"testing"

	"pvr/internal/group"
)

func commitVector(t testing.TB, bits []bool) ([]Commitment, []Opening) {
	t.Helper()
	cs, os, err := CommitBits(bits)
	if err != nil {
		t.Fatal(err)
	}
	return cs, os
}

func monotone(k, min int) []bool {
	bits := make([]bool, k)
	if min > 0 {
		for i := min - 1; i < k; i++ {
			bits[i] = true
		}
	}
	return bits
}

// commitTo builds g·G + r·H for an arbitrary g — the malformed
// commitments the soundness tests need.
func commitTo(t testing.TB, g *big.Int) (Commitment, *big.Int) {
	t.Helper()
	r, err := randScalar()
	if err != nil {
		t.Fatal(err)
	}
	p := pedersen(g, r)
	return Commitment{p.Encode()}, r
}

// opens checks an opening against a commitment; the ZK path never opens.
func opens(c Commitment, o Opening) bool {
	var p group.Point
	if o.R == nil || o.R.Sign() < 0 || o.R.Cmp(group.Order) >= 0 || !p.Decode(c.enc[:]) {
		return false
	}
	g := new(big.Int)
	if o.Bit {
		g.SetInt64(1)
	}
	want := pedersen(g, o.R)
	return want.Equal(&p)
}

func TestCommitVerifyOpen(t *testing.T) {
	for _, b := range []bool{false, true} {
		cs, os := commitVector(t, []bool{b})
		c, o := cs[0], os[0]
		if !opens(c, o) {
			t.Errorf("bit %v: honest opening rejected", b)
		}
		o.Bit = !o.Bit
		if opens(c, o) {
			t.Errorf("bit %v: flipped opening accepted", b)
		}
	}
	// The zero Commitment is the identity: a commitment to 0 under r = 0.
	if !opens(Commitment{}, Opening{R: new(big.Int)}) || opens(Commitment{}, Opening{Bit: true, R: new(big.Int)}) {
		t.Error("the zero Commitment does not behave as the identity element")
	}
}

func TestCommitHiding(t *testing.T) {
	cs, _ := commitVector(t, []bool{true, true})
	c1, c2 := cs[0], cs[1]
	if c1.enc == c2.enc {
		t.Error("two commitments to the same bit are equal")
	}
}

func TestBitProofBothValues(t *testing.T) {
	ctx := []byte("test")
	for _, b := range []bool{false, true} {
		cs, os := commitVector(t, []bool{b})
		vp, err := ProveVector(cs, os, ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyVector(cs, vp, ctx); err != nil {
			t.Errorf("bit %v: honest proof rejected: %v", b, err)
		}
		if err := VerifyVector(cs, vp, []byte("other")); err == nil {
			t.Errorf("bit %v: proof accepted under wrong context", b)
		}
	}
}

func TestBitProofSoundness(t *testing.T) {
	// Commitments to 2 and to −1 must not admit a bit proof, whichever
	// bit the prover claims.
	ctx := []byte("test")
	for _, g := range []*big.Int{big.NewInt(2), new(big.Int).Sub(group.Order, big.NewInt(1))} {
		c, r := commitTo(t, g)
		for _, claim := range []bool{false, true} {
			vp, err := ProveVector([]Commitment{c}, []Opening{{Bit: claim, R: r}}, ctx)
			if err != nil {
				t.Fatal(err)
			}
			if VerifyVector([]Commitment{c}, vp, ctx) == nil {
				t.Errorf("proof that a commitment to %v is the bit %v accepted", g, claim)
			}
		}
	}
}

func TestMonotoneProofHonest(t *testing.T) {
	ctx := []byte("epoch-7")
	for _, tc := range []struct{ k, min int }{
		{0, 0}, {1, 0}, {1, 1}, {4, 1}, {8, 3}, {8, 8}, {8, 0}, {16, 5},
	} {
		cs, os := commitVector(t, monotone(tc.k, tc.min))
		mp, err := ProveMonotone(cs, os, tc.min, ctx)
		if err != nil {
			t.Fatalf("k=%d min=%d: %v", tc.k, tc.min, err)
		}
		if err := VerifyMonotone(cs, mp, ctx); err != nil {
			t.Errorf("k=%d min=%d: honest proof rejected: %v", tc.k, tc.min, err)
		}
		b, err := mp.batch(cs, ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := naiveVerify(b); err != nil {
			t.Errorf("k=%d min=%d: equation-by-equation check: %v", tc.k, tc.min, err)
		}
		if mp.Size() <= 0 {
			t.Error("proof size not positive")
		}
		if VerifyMonotone(cs, mp, []byte("epoch-8")) == nil && tc.k > 0 {
			t.Errorf("k=%d min=%d: proof accepted under wrong context", tc.k, tc.min)
		}
	}
}

func TestMonotoneProofRejectsNonMonotone(t *testing.T) {
	ctx := []byte("epoch-8")
	cs, os := commitVector(t, []bool{false, true, false, true}) // dip
	// A cheating prover claims min=2 over a non-monotone vector; the diff
	// proof for the 1->0 drop cannot be made.
	mp, err := ProveMonotone(cs, os, 2, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMonotone(cs, mp, ctx); err == nil {
		t.Error("non-monotone vector verified")
	}
}

func TestMonotoneProofRejectsWrongMin(t *testing.T) {
	ctx := []byte("epoch-9")
	cs, os := commitVector(t, monotone(8, 3))
	// Claim min=5 although bit 3 is set (the pin-zero at position 4 lies),
	// min=2 although bit 2 is clear (the pin-one lies), and min=0.
	for _, min := range []int{5, 2, 0} {
		mp, err := ProveMonotone(cs, os, min, ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyMonotone(cs, mp, ctx); err == nil {
			t.Errorf("minimum %d verified over a vector whose minimum is 3", min)
		}
	}
	// An honest proof relabelled with another minimum: the pins no longer
	// sit where the claim needs them.
	mp, err := ProveMonotone(cs, os, 3, ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, min := range []int{1, 2, 4, 0} {
		bad := *mp
		bad.Min = min
		if VerifyMonotone(cs, &bad, ctx) == nil {
			t.Errorf("honest proof for minimum 3 verified as minimum %d", min)
		}
	}
}

func TestMonotoneProofShapeChecks(t *testing.T) {
	ctx := []byte("x")
	cs, os := commitVector(t, monotone(4, 2))
	mp, err := ProveMonotone(cs, os, 2, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyMonotone(cs[:3], mp, ctx); err == nil {
		t.Error("wrong commitment count accepted")
	}
	if err := VerifyMonotone(cs, nil, ctx); err == nil {
		t.Error("nil proof accepted")
	}
	for name, mut := range map[string]func(*MonotoneProof){
		"out-of-range min": func(m *MonotoneProof) { m.Min = 99 },
		"negative min":     func(m *MonotoneProof) { m.Min = -1 },
		"missing pin":      func(m *MonotoneProof) { m.pin[1] = nil },
		"missing vector":   func(m *MonotoneProof) { m.Vector = nil },
		"swapped pins":     func(m *MonotoneProof) { m.pin[0], m.pin[1] = m.pin[1], m.pin[0] },
	} {
		bad := *mp
		mut(&bad)
		if VerifyMonotone(cs, &bad, ctx) == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := ProveMonotone(cs, os, 5, ctx); err == nil {
		t.Error("ProveMonotone accepted a minimum beyond the vector")
	}
}

func TestMonotoneProofSizeLinear(t *testing.T) {
	// The E4 claim: proof size grows linearly with vector length.
	ctx := []byte("scale")
	var sizes []int
	for _, k := range []int{4, 8, 16} {
		cs, os := commitVector(t, monotone(k, 2))
		mp, err := ProveMonotone(cs, os, 2, ctx)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyMonotone(cs, mp, ctx); err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, mp.Size())
	}
	for i := 1; i < len(sizes); i++ {
		// Doubling k should roughly double the size (within 25%).
		if ratio := float64(sizes[i]) / float64(sizes[i-1]); ratio < 1.5 || ratio > 2.5 {
			t.Errorf("size growth step %d = %.2fx, want ~2x (sizes %v)", i, ratio, sizes)
		}
	}
}

func benchVector(b *testing.B) ([]Commitment, []Opening, []byte) {
	cs, os := commitVector(b, monotone(16, 4))
	b.ReportAllocs()
	return cs, os, []byte("bench")
}

func BenchmarkProveMonotone16(b *testing.B) {
	cs, os, ctx := benchVector(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ProveMonotone(cs, os, 4, ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyMonotone16(b *testing.B) {
	cs, os, ctx := benchVector(b)
	mp, err := ProveMonotone(cs, os, 4, ctx)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := VerifyMonotone(cs, mp, ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProveVector16(b *testing.B) {
	cs, os, ctx := benchVector(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ProveVector(cs, os, ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyVector16(b *testing.B) {
	cs, os, ctx := benchVector(b)
	vp, err := ProveVector(cs, os, ctx)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := VerifyVector(cs, vp, ctx); err != nil {
			b.Fatal(err)
		}
	}
}
