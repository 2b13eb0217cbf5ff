// Package group is the repo's one elliptic-curve substrate, from first
// principles: radix-51 field arithmetic over GF(2^255-19), extended
// twisted-Edwards points on edwards25519, a Pippenger multi-scalar
// multiplication, and fixed-base tables. Two callers, two codecs on the
// same Point:
//
//   - Ed25519 batch verification (internal/sigs/ed25519batch) decodes
//     RFC 8032 compressed points with SetBytes. Those may carry
//     small-order components; that caller clears the cofactor itself.
//   - The zero-knowledge plane (internal/zkp) uses ristretto255
//     (RFC 9496): Decode accepts exactly one 32-byte string per element
//     of a prime-order group and Equal compares elements, so Points that
//     came from Decode, Base or HashToPoint, and their sums and
//     multiples, have no torsion for a proof to hide in.
//
// The arithmetic is variable-time. Verification handles public data
// only; the zkp prover multiplies fixed bases by secrets with a
// scalar-independent operation count, but is not hardened against
// cache-timing observers on the same host.
package group

import (
	"encoding/binary"
	"math/bits"
)

// fe is a field element of GF(2^255-19) in unsaturated radix-2^51
// representation: v = l0 + l1·2^51 + l2·2^102 + l3·2^153 + l4·2^204.
// Limbs may exceed 51 bits between reductions; carryPropagate brings
// them back below 2^51 + ε.
type fe [5]uint64

const maskLow51 = (1 << 51) - 1

var (
	feZero = fe{0, 0, 0, 0, 0}
	feOne  = fe{1, 0, 0, 0, 0}
)

// setBytes interprets b as a 32-byte little-endian field element. The
// top bit of b[31] is ignored (callers strip the sign bit first). It
// returns false when the value is ≥ 2^255-19, i.e. non-canonical.
func (v *fe) setBytes(b *[32]byte) bool {
	v[0] = binary.LittleEndian.Uint64(b[0:8]) & maskLow51
	v[1] = (binary.LittleEndian.Uint64(b[6:14]) >> 3) & maskLow51
	v[2] = (binary.LittleEndian.Uint64(b[12:20]) >> 6) & maskLow51
	v[3] = (binary.LittleEndian.Uint64(b[19:27]) >> 1) & maskLow51
	v[4] = (binary.LittleEndian.Uint64(b[24:32]) >> 12) & maskLow51 // 256th bit dropped
	// Canonical iff v < p = 2^255-19.
	if v[4] == maskLow51 && v[3] == maskLow51 && v[2] == maskLow51 &&
		v[1] == maskLow51 && v[0] >= maskLow51-18 {
		return false
	}
	return true
}

// bytes returns the canonical 32-byte little-endian encoding: the five
// reduced 51-bit limbs packed into four words.
func (v *fe) bytes() [32]byte {
	t := *v
	t.reduce()
	var out [32]byte
	binary.LittleEndian.PutUint64(out[0:], t[0]|t[1]<<51)
	binary.LittleEndian.PutUint64(out[8:], t[1]>>13|t[2]<<38)
	binary.LittleEndian.PutUint64(out[16:], t[2]>>26|t[3]<<25)
	binary.LittleEndian.PutUint64(out[24:], t[3]>>39|t[4]<<12)
	return out
}

// reduce brings v to its canonical representative in [0, p).
func (v *fe) reduce() {
	v.carryPropagate()
	// After carryPropagate each limb is < 2^52; at most one extra
	// subtraction of p is needed once the 19-fold wraparound settles.
	for i := 0; i < 2; i++ {
		c := (v[4] >> 51) * 19
		v[4] &= maskLow51
		v[0] += c
		v[1] += v[0] >> 51
		v[0] &= maskLow51
		v[2] += v[1] >> 51
		v[1] &= maskLow51
		v[3] += v[2] >> 51
		v[2] &= maskLow51
		v[4] += v[3] >> 51
		v[3] &= maskLow51
	}
	// Now v < 2^255; conditionally subtract p = 2^255-19.
	if v[4] == maskLow51 && v[3] == maskLow51 && v[2] == maskLow51 &&
		v[1] == maskLow51 && v[0] >= maskLow51-18 {
		v[0] -= maskLow51 - 18
		v[1], v[2], v[3], v[4] = 0, 0, 0, 0
	}
}

// carryPropagate brings limbs below 2^51 + ε (one pass).
func (v *fe) carryPropagate() {
	c0 := v[0] >> 51
	c1 := v[1] >> 51
	c2 := v[2] >> 51
	c3 := v[3] >> 51
	c4 := v[4] >> 51
	v[0] = v[0]&maskLow51 + c4*19
	v[1] = v[1]&maskLow51 + c0
	v[2] = v[2]&maskLow51 + c1
	v[3] = v[3]&maskLow51 + c2
	v[4] = v[4]&maskLow51 + c3
}

// add sets v = a + b.
func (v *fe) add(a, b *fe) *fe {
	v[0] = a[0] + b[0]
	v[1] = a[1] + b[1]
	v[2] = a[2] + b[2]
	v[3] = a[3] + b[3]
	v[4] = a[4] + b[4]
	v.carryPropagate()
	return v
}

// sub sets v = a - b, adding 2p first so limbs stay non-negative.
func (v *fe) sub(a, b *fe) *fe {
	v[0] = (a[0] + 0xFFFFFFFFFFFDA) - b[0]
	v[1] = (a[1] + 0xFFFFFFFFFFFFE) - b[1]
	v[2] = (a[2] + 0xFFFFFFFFFFFFE) - b[2]
	v[3] = (a[3] + 0xFFFFFFFFFFFFE) - b[3]
	v[4] = (a[4] + 0xFFFFFFFFFFFFE) - b[4]
	v.carryPropagate()
	return v
}

// neg sets v = -a.
func (v *fe) neg(a *fe) *fe { return v.sub(&feZero, a) }

// isNegative reports whether the canonical encoding's low bit is set.
func (v *fe) isNegative() bool {
	b := v.bytes()
	return b[0]&1 == 1
}

// isZero reports whether v ≡ 0 (mod p).
func (v *fe) isZero() bool {
	t := *v
	t.reduce()
	return t == feZero
}

// equal reports whether a ≡ b (mod p).
func (v *fe) equal(b *fe) bool {
	var d fe
	d.sub(v, b)
	return d.isZero()
}

// uint128 accumulator helpers.
type uint128 struct{ hi, lo uint64 }

func mul64(a, b uint64) uint128 {
	hi, lo := bits.Mul64(a, b)
	return uint128{hi, lo}
}

func (u uint128) addMul(a, b uint64) uint128 {
	hi, lo := bits.Mul64(a, b)
	lo, c := bits.Add64(u.lo, lo, 0)
	return uint128{u.hi + hi + c, lo}
}

func shr51(u uint128) uint64 { return u.hi<<13 | u.lo>>51 }

// mul sets v = a * b mod p.
func (v *fe) mul(a, b *fe) *fe {
	a0, a1, a2, a3, a4 := a[0], a[1], a[2], a[3], a[4]
	b0, b1, b2, b3, b4 := b[0], b[1], b[2], b[3], b[4]
	b1_19, b2_19, b3_19, b4_19 := b1*19, b2*19, b3*19, b4*19

	r0 := mul64(a0, b0).addMul(a1, b4_19).addMul(a2, b3_19).addMul(a3, b2_19).addMul(a4, b1_19)
	r1 := mul64(a0, b1).addMul(a1, b0).addMul(a2, b4_19).addMul(a3, b3_19).addMul(a4, b2_19)
	r2 := mul64(a0, b2).addMul(a1, b1).addMul(a2, b0).addMul(a3, b4_19).addMul(a4, b3_19)
	r3 := mul64(a0, b3).addMul(a1, b2).addMul(a2, b1).addMul(a3, b0).addMul(a4, b4_19)
	r4 := mul64(a0, b4).addMul(a1, b3).addMul(a2, b2).addMul(a3, b1).addMul(a4, b0)

	c0, c1, c2, c3, c4 := shr51(r0), shr51(r1), shr51(r2), shr51(r3), shr51(r4)
	v[0] = r0.lo&maskLow51 + c4*19
	v[1] = r1.lo&maskLow51 + c0
	v[2] = r2.lo&maskLow51 + c1
	v[3] = r3.lo&maskLow51 + c2
	v[4] = r4.lo&maskLow51 + c3
	v.carryPropagate()
	return v
}

// square sets v = a² mod p.
func (v *fe) square(a *fe) *fe {
	a0, a1, a2, a3, a4 := a[0], a[1], a[2], a[3], a[4]
	d0, d1, d2, d3 := a0*2, a1*2, a2*2, a3*2
	a3_19, a4_19 := a3*19, a4*19

	r0 := mul64(a0, a0).addMul(d1, a4_19).addMul(d2, a3_19)
	r1 := mul64(d0, a1).addMul(d2, a4_19).addMul(a3, a3_19)
	r2 := mul64(d0, a2).addMul(a1, a1).addMul(d3, a4_19)
	r3 := mul64(d0, a3).addMul(d1, a2).addMul(a4, a4_19)
	r4 := mul64(d0, a4).addMul(d1, a3).addMul(a2, a2)

	c0, c1, c2, c3, c4 := shr51(r0), shr51(r1), shr51(r2), shr51(r3), shr51(r4)
	v[0] = r0.lo&maskLow51 + c4*19
	v[1] = r1.lo&maskLow51 + c0
	v[2] = r2.lo&maskLow51 + c1
	v[3] = r3.lo&maskLow51 + c2
	v[4] = r4.lo&maskLow51 + c3
	v.carryPropagate()
	return v
}

// pow22523 sets v = a^((p-5)/8) = a^(2^252 - 3), the exponentiation at
// the heart of the combined square-root/division trick used by point
// decompression (RFC 8032 §5.1.3).
func (v *fe) pow22523(a *fe) *fe {
	var t0, t1, t2 fe

	t0.square(a)             // a^2
	t1.square(&t0)           // a^4
	t1.square(&t1)           // a^8
	t1.mul(a, &t1)           // a^9
	t0.mul(&t0, &t1)         // a^11
	t0.square(&t0)           // a^22
	t0.mul(&t1, &t0)         // a^31 = a^(2^5-1)
	t1.square(&t0)           // 2^6-2
	for i := 1; i < 5; i++ { // 2^10 - 2^5
		t1.square(&t1)
	}
	t0.mul(&t1, &t0) // 2^10 - 1
	t1.square(&t0)
	for i := 1; i < 10; i++ {
		t1.square(&t1)
	}
	t1.mul(&t1, &t0) // 2^20 - 1
	t2.square(&t1)
	for i := 1; i < 20; i++ {
		t2.square(&t2)
	}
	t1.mul(&t2, &t1) // 2^40 - 1
	t1.square(&t1)
	for i := 1; i < 10; i++ {
		t1.square(&t1)
	}
	t0.mul(&t1, &t0) // 2^50 - 1
	t1.square(&t0)
	for i := 1; i < 50; i++ {
		t1.square(&t1)
	}
	t1.mul(&t1, &t0) // 2^100 - 1
	t2.square(&t1)
	for i := 1; i < 100; i++ {
		t2.square(&t2)
	}
	t1.mul(&t2, &t1) // 2^200 - 1
	t1.square(&t1)
	for i := 1; i < 50; i++ {
		t1.square(&t1)
	}
	t1.mul(&t1, &t0)     // 2^250 - 1
	t1.square(&t1)       // 2^251 - 2
	t1.square(&t1)       // 2^252 - 4
	return v.mul(&t1, a) // 2^252 - 3
}
