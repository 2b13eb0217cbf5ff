package zkp

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/big"
	mrand "math/rand"
	"testing"

	"pvr/internal/group"
)

// naiveVerify is the reference the one-MSM check is tested against:
// every Schnorr equation z·H = A + e·X of a batch checked alone, by
// double-and-add.
func naiveVerify(b *batch) error {
	as := b.points[len(b.points)-len(b.eqs):]
	for i, eq := range b.eqs {
		var lhs, ex, rhs, neg group.Point
		x := b.points[2+eq.plus]
		if eq.minus >= 0 {
			x.Add(&x, neg.Neg(&b.points[2+eq.minus]))
		}
		if eq.g {
			x.Add(&x, neg.Neg(&genG.P))
		}
		rhs.Add(&as[i], group.ScalarMult(&ex, &x, eq.e))
		if !group.ScalarMult(&lhs, &genH.P, eq.z).Equal(&rhs) {
			return fmt.Errorf("%w: equation %d", ErrBadProof, i)
		}
	}
	return nil
}

// bothVerify runs the batch and the naive verifier and fails the test if
// they disagree or if the common verdict is not the expected one.
func bothVerify(t *testing.T, what string, cs []Commitment, vp *VectorProof, ctx []byte, want bool) {
	t.Helper()
	batch := VerifyVector(cs, vp, ctx) == nil
	naive := false
	if b, _, err := vectorBatch(cs, vp, ctx); err == nil {
		naive = naiveVerify(b) == nil
	}
	if batch != naive || batch != want {
		t.Errorf("%s: batch verifier accepts=%v, naive verifier accepts=%v, want %v", what, batch, naive, want)
	}
}

func TestBatchAgreesWithNaiveOnHonestVectors(t *testing.T) {
	rng := mrand.New(mrand.NewSource(13))
	for _, k := range []int{1, 2, 16, MaxVectorLen} {
		for _, min := range []int{0, 1, 1 + rng.Intn(k), k} {
			cs, os := commitVector(t, monotone(k, min))
			ctx := []byte(fmt.Sprintf("honest/%d/%d", k, min))
			vp, err := ProveVector(cs, os, ctx)
			if err != nil {
				t.Fatal(err)
			}
			bothVerify(t, fmt.Sprintf("k=%d min=%d", k, min), cs, vp, ctx, true)
			if k == MaxVectorLen {
				break // one vector of the largest size is enough
			}
		}
	}
}

// bumpElem returns the encoding of the element enc encodes, plus G.
func bumpElem(t *testing.T, enc []byte) []byte {
	t.Helper()
	var p group.Point
	if !p.Decode(enc) {
		t.Fatalf("test bug: %x does not decode", enc)
	}
	out := p.Add(&p, &genG.P).Encode()
	return out[:]
}

// bumpScalar returns the encoding of the scalar enc encodes, plus one.
func bumpScalar(enc []byte) []byte {
	s := group.ScalarFromLE(enc)
	s.Mod(s.Add(s, big.NewInt(1)), group.Order)
	return group.AppendScalar(nil, s)
}

func decodeProof(t *testing.T, b []byte) *VectorProof {
	t.Helper()
	vp := new(VectorProof)
	if err := vp.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	return vp
}

func TestBatchAgreesWithNaiveOnCorruptions(t *testing.T) {
	fieldNames := [5]string{"A0", "A1", "e0", "z0", "z1"}
	for _, k := range []int{1, 2, 5} {
		cs, os := commitVector(t, monotone(k, (k+1)/2))
		ctx := []byte("corruptions")
		honest, err := ProveVector(cs, os, ctx)
		if err != nil {
			t.Fatal(err)
		}
		pb, _ := honest.MarshalBinary()
		bothVerify(t, "round-tripped honest proof", cs, decodeProof(t, pb), ctx, true)

		// Every field of every OR-proof, replaced by another valid value;
		// and one flipped bit in it, which either no longer decodes or
		// decodes to a proof both verifiers refuse.
		for j := 0; j < 2*k-1; j++ {
			for f, name := range fieldNames {
				off := 4 + j*orSize + f*ElemSize
				what := fmt.Sprintf("k=%d proof %d field %s", k, j, name)
				mut := append([]byte(nil), pb...)
				if f < 2 {
					copy(mut[off:], bumpElem(t, pb[off:off+ElemSize]))
				} else {
					copy(mut[off:], bumpScalar(pb[off:off+ElemSize]))
				}
				bothVerify(t, what+" replaced", cs, decodeProof(t, mut), ctx, false)

				mut = append([]byte(nil), pb...)
				mut[off+1] ^= 0x04
				vp := new(VectorProof)
				if vp.UnmarshalBinary(mut) == nil {
					bothVerify(t, what+" bit-flipped", cs, vp, ctx, false)
				}
			}
		}
		// Every commitment, replaced by another group element.
		for i := range cs {
			mut := append([]Commitment(nil), cs...)
			copy(mut[i].enc[:], bumpElem(t, cs[i].enc[:]))
			bothVerify(t, fmt.Sprintf("k=%d commitment %d replaced", k, i), mut, honest, ctx, false)
		}
		swap := func(a, b int) *VectorProof {
			mut := append([]byte(nil), pb...)
			ra, rb := mut[4+a*orSize:4+(a+1)*orSize], mut[4+b*orSize:4+(b+1)*orSize]
			tmp := append([]byte(nil), ra...)
			copy(ra, rb)
			copy(rb, tmp)
			return decodeProof(t, mut)
		}
		if k > 1 {
			bothVerify(t, "bit proof swapped with diff proof", cs, swap(0, k), ctx, false)
			bothVerify(t, "two bit proofs swapped", cs, swap(0, 1), ctx, false)
			bothVerify(t, "commitments reordered", append([]Commitment{cs[1], cs[0]}, cs[2:]...), honest, ctx, false)
			bothVerify(t, "proof for a longer vector", cs[:k-1], honest, ctx, false)
		}
		bothVerify(t, "wrong context", cs, honest, []byte("corruptions."), false)
		// The same bits sealed again: fresh blinding, so another vector.
		cs2, _ := commitVector(t, monotone(k, (k+1)/2))
		bothVerify(t, "proof transplanted onto another vector", cs2, honest, ctx, false)
		bothVerify(t, "nil proof", cs, nil, ctx, false)
	}
}

func TestVectorProofRejectsNonMonotone(t *testing.T) {
	// 1,0 is not monotone: the diff commitment hides -1, which is neither
	// 0 nor 1, so no opening the prover can claim yields a passing proof.
	cs, os := commitVector(t, []bool{true, false})
	ctx := []byte("ctx")
	vp, err := ProveVector(cs, os, ctx)
	if err != nil {
		t.Fatal(err)
	}
	bothVerify(t, "non-monotone vector", cs, vp, ctx, false)
}

func TestVectorProofHidesMin(t *testing.T) {
	// Two vectors with different minima must produce proofs of identical
	// shape and size — the proof leaks nothing about where the first 1 is.
	csA, osA := commitVector(t, []bool{false, false, true, true})
	csB, osB := commitVector(t, []bool{true, true, true, true})
	pa, err := ProveVector(csA, osA, []byte("c"))
	if err != nil {
		t.Fatal(err)
	}
	pb, err := ProveVector(csB, osB, []byte("c"))
	if err != nil {
		t.Fatal(err)
	}
	if pa.Size() != pb.Size() {
		t.Fatalf("proof size leaks the minimum: %d != %d", pa.Size(), pb.Size())
	}
	ba, _ := pa.MarshalBinary()
	bb, _ := pb.MarshalBinary()
	if len(ba) != len(bb) {
		t.Fatalf("serialized size leaks the minimum: %d != %d", len(ba), len(bb))
	}
	// Two proofs of one vector share no field: every A, challenge share
	// and response is freshly randomized, simulated or real.
	pa2, err := ProveVector(csA, osA, []byte("c"))
	if err != nil {
		t.Fatal(err)
	}
	ba2, _ := pa2.MarshalBinary()
	for off := 4; off < len(ba); off += ElemSize {
		if bytes.Equal(ba[off:off+ElemSize], ba2[off:off+ElemSize]) {
			t.Fatalf("field at offset %d repeats across two proofs of the same vector", off)
		}
	}
}

func TestVectorProofSerialization(t *testing.T) {
	cs, os := commitVector(t, []bool{false, true, true})
	ctx := []byte("wire")
	vp, err := ProveVector(cs, os, ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := vp.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != vp.Size() || len(b) != 4+5*orSize {
		t.Fatalf("Size()=%d but encoding is %d bytes", vp.Size(), len(b))
	}
	rt := decodeProof(t, b)
	if err := VerifyVector(cs, rt, ctx); err != nil {
		t.Fatalf("round-tripped proof does not verify: %v", err)
	}
	b2, err := rt.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatal("proof encoding is not canonical")
	}
	// Truncations and length lies must error, never panic.
	for cut := 0; cut < len(b); cut += ElemSize / 2 {
		var bad VectorProof
		if err := bad.UnmarshalBinary(b[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
	var empty VectorProof
	eb, _ := empty.MarshalBinary()
	if err := new(VectorProof).UnmarshalBinary(eb); err != nil || len(eb) != 4 {
		t.Fatalf("empty proof: %d bytes, %v", len(eb), err)
	}
	if VerifyVector(nil, &empty, ctx) != nil {
		t.Fatal("the empty proof of the empty vector does not verify")
	}
}

func TestCommitmentVectorSerialization(t *testing.T) {
	cs, _ := commitVector(t, []bool{false, true, true, true})
	b := MarshalCommitments(cs)
	if len(b) != 4+4*ElemSize {
		t.Fatalf("4 commitments encode to %d bytes", len(b))
	}
	rt, err := UnmarshalCommitments(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(MarshalCommitments(rt), b) {
		t.Fatal("commitment encoding is not canonical")
	}
	if DigestCommitments(rt) != DigestCommitments(cs) {
		t.Fatal("digest changed across round trip")
	}
	if _, err := UnmarshalCommitments(b[:len(b)-1]); err == nil {
		t.Fatal("short commitment vector decoded")
	}
}

// smallOrder lists the RFC 8032 encodings of the eight points of E[8], as
// multiples 0…7 of a point of order eight; internal/group's tests check
// the list against the curve.
var smallOrder = []string{
	"0100000000000000000000000000000000000000000000000000000000000000",
	"c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
	"0000000000000000000000000000000000000000000000000000000000000080",
	"26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
	"ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
	"26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
	"0000000000000000000000000000000000000000000000000000000000000000",
	"c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
}

// TestDecodeIsTheGuard plants malformed fields at every element and
// scalar position of both wire forms. A string outside the canonical
// range must not decode; one in range that is not the encoding of a
// group element may, and then both verifiers must refuse it — without
// evaluating anything, which the naive verifier sharing the decoding
// step shows.
func TestDecodeIsTheGuard(t *testing.T) {
	le := func(n *big.Int) []byte { return group.AppendScalar(nil, n) }
	p := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19))
	one := big.NewInt(1)
	badElems := map[string][]byte{
		"p":          le(p),
		"p+1":        le(new(big.Int).Add(p, one)),
		"2^255-1":    le(new(big.Int).Sub(new(big.Int).Lsh(one, 255), one)),
		"2^255":      le(new(big.Int).Lsh(one, 255)),
		"2^256-1":    bytes.Repeat([]byte{0xff}, 32),
		"negative s": le(big.NewInt(3)),
		"s = -1":     le(new(big.Int).Sub(p, one)), // in range, decodes to y = 0
	}
	// The small-order points themselves, and a commitment shifted by each:
	// a shift by E[4] is the same element and so the same bytes — torsion
	// has no second encoding to offer — and the encoder's output for a
	// shift by a point of order eight is a string like any other forgery.
	c0, _ := commitVector(t, []bool{true})
	var base group.Point
	if !base.Decode(c0[0].enc[:]) {
		t.Fatal("test bug: honest commitment does not decode")
	}
	for i, s := range smallOrder {
		var tor, q group.Point
		enc, _ := hex.DecodeString(s)
		if !tor.SetBytes(enc) {
			t.Fatalf("test bug: small-order encoding %d is not a curve point", i)
		}
		if !q.Decode(enc) {
			badElems[fmt.Sprintf("small-order point %d", i)] = enc
		}
		shifted := q.Add(&base, &tor).Encode()
		if i%2 == 0 && shifted != c0[0].enc {
			t.Errorf("adding 4-torsion point %d changed the commitment's encoding", i)
		}
		if i%2 == 1 {
			badElems[fmt.Sprintf("commitment plus torsion point %d", i)] = shifted[:]
		}
	}
	// (√−1, 0) compresses to all zeros, the identity's canonical encoding;
	// the other seven small-order encodings must be among the refused.
	if len(badElems) != 7+7+4 {
		t.Errorf("%d bad elements collected, want 18: a small-order encoding decoded", len(badElems))
	}

	cs, os := commitVector(t, monotone(3, 2))
	ctx := []byte("guard")
	vp, err := ProveVector(cs, os, ctx)
	if err != nil {
		t.Fatal(err)
	}
	cb := MarshalCommitments(cs)
	pb, _ := vp.MarshalBinary()
	inRangeSeen := false
	for name, bad := range badElems {
		inRange := group.InRange(bad)
		inRangeSeen = inRangeSeen || inRange
		for i := range cs {
			mut := append([]byte(nil), cb...)
			copy(mut[4+i*ElemSize:], bad)
			got, err := UnmarshalCommitments(mut)
			if (err == nil) != inRange {
				t.Errorf("commitment %d = %s: decode error %v, in range %v", i, name, err, inRange)
			} else if err == nil {
				bothVerify(t, fmt.Sprintf("commitment %d = %s", i, name), got, vp, ctx, false)
			}
		}
		for j := 0; j < 5; j++ {
			for f := 0; f < 2; f++ {
				mut := append([]byte(nil), pb...)
				copy(mut[4+j*orSize+f*ElemSize:], bad)
				got := new(VectorProof)
				if err := got.UnmarshalBinary(mut); (err == nil) != inRange {
					t.Errorf("proof %d A%d = %s: decode error %v, in range %v", j, f, name, err, inRange)
				} else if err == nil {
					bothVerify(t, fmt.Sprintf("proof %d A%d = %s", j, f, name), cs, got, ctx, false)
				}
			}
		}
	}
	if !inRangeSeen {
		t.Error("no in-range non-element among the controls: the verifiers' decoding went untested")
	}
	for name, bad := range map[string][]byte{
		"l":       le(group.Order),
		"l+1":     le(new(big.Int).Add(group.Order, one)),
		"2^256-1": bytes.Repeat([]byte{0xff}, 32),
	} {
		for j := 0; j < 5; j++ {
			for f := 2; f < 5; f++ {
				mut := append([]byte(nil), pb...)
				copy(mut[4+j*orSize+f*ElemSize:], bad)
				if new(VectorProof).UnmarshalBinary(mut) == nil {
					t.Errorf("proof %d scalar %d = %s decoded", j, f, name)
				}
			}
		}
	}
}

func fuzzSeeds(f *testing.F) (commitments, proof []byte) {
	cs, os := commitVector(f, monotone(3, 2))
	vp, err := ProveVector(cs, os, []byte("fuzz"))
	if err != nil {
		f.Fatal(err)
	}
	pb, _ := vp.MarshalBinary()
	return MarshalCommitments(cs), pb
}

// FuzzVectorProofRoundTrip: arbitrary bytes never panic the decoder, and
// whatever decodes re-encodes to exactly the bytes it came from.
func FuzzVectorProofRoundTrip(f *testing.F) {
	_, pb := fuzzSeeds(f)
	f.Add(pb)
	f.Add(pb[:4+orSize])
	f.Add([]byte{0, 0, 0, 0})
	f.Add(append([]byte{0, 0, 0, 1}, make([]byte, orSize)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		vp := new(VectorProof)
		if vp.UnmarshalBinary(data) != nil {
			return
		}
		out, err := vp.MarshalBinary()
		if err != nil || !bytes.Equal(out, data) || vp.Size() != len(data) {
			t.Fatalf("proof round trip not stable: %x != %x (%v)", out, data, err)
		}
	})
}

// FuzzCommitmentsRoundTrip: the same for commitment vectors.
func FuzzCommitmentsRoundTrip(f *testing.F) {
	cb, _ := fuzzSeeds(f)
	f.Add(cb)
	f.Add(cb[:4+ElemSize])
	f.Add([]byte{0, 0, 0, 0})
	f.Add(append([]byte{0, 0, 0, 1}, make([]byte, ElemSize)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		cs, err := UnmarshalCommitments(data)
		if err != nil {
			return
		}
		if out := MarshalCommitments(cs); !bytes.Equal(out, data) {
			t.Fatalf("commitment round trip not stable: %x != %x", out, data)
		}
	})
}
