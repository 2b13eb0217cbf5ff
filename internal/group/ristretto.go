package group

import (
	"crypto/sha256"
	"encoding/binary"
)

// ristretto255 (RFC 9496): the prime-order group 2E/E[4]. Whichever of a
// coset's four curve points represents an element internally, Encode
// emits the same string and Equal compares the cosets.

// feInvSqrtAMinusD is 1/√(a−d) for a = −1, the constant Encode needs to
// rotate a representative by a point of order four.
var feInvSqrtAMinusD = feFromDecimal("54469307008909316920995813868745141605393597292927456921205312896311721017578")

// sqrtRatio sets r to the non-negative square root of u/v and returns
// true; when u/v is not a square it returns false and r is unspecified.
// r = u·v³·(u·v⁷)^((p−5)/8) is the candidate root of RFC 8032 §5.1.3.
func (r *fe) sqrtRatio(u, v *fe) bool {
	var v3, v7, check, negU fe
	v3.square(v)
	v3.mul(&v3, v)
	v7.square(&v3)
	v7.mul(&v7, v)
	r.mul(u, &v7)
	r.pow22523(r)
	r.mul(r, &v3)
	r.mul(r, u)

	check.square(r)
	check.mul(&check, v) // v·r² ∈ {u, −u} iff u/v is a square
	negU.neg(u)
	switch {
	case check.equal(u):
	case check.equal(&negU):
		r.mul(r, &feSqrtM1)
	default:
		return false
	}
	if r.isNegative() {
		r.neg(r)
	}
	return true
}

// InRange reports whether in has the form of an encoding: 32 bytes
// holding a non-negative (even) field element below p. It is the cheap
// part of Decode; the rest takes Decode's square root to decide.
func InRange(in []byte) bool {
	_, ok := inRange(in)
	return ok
}

func inRange(in []byte) (s fe, ok bool) {
	ok = len(in) == 32 && in[31]&0x80 == 0 && in[0]&1 == 0 && s.setBytes((*[32]byte)(in))
	return s, ok
}

// Decode sets p to the group element with the canonical ristretto255
// encoding in (RFC 9496 §4.3.1). It returns false, leaving p alone, for
// every other string: wrong length, a field element ≥ p or negative,
// and anything that is not the encoding Encode would produce.
func (p *Point) Decode(in []byte) bool {
	s, ok := inRange(in)
	if !ok {
		return false
	}
	var ss, u1, u2, u2sq, v, w, inv, dx, dy, x, y, t fe
	ss.square(&s)
	u1.sub(&feOne, &ss)
	u2.add(&feOne, &ss)
	u2sq.square(&u2)
	v.square(&u1)
	v.mul(&v, &feD)
	v.neg(&v)
	v.sub(&v, &u2sq) // −d·u1² − u2²
	w.mul(&v, &u2sq)
	ok = inv.sqrtRatio(&feOne, &w)
	dx.mul(&inv, &u2)
	dy.mul(&inv, &dx)
	dy.mul(&dy, &v)
	x.mul(&s, &dx)
	x.add(&x, &x)
	if x.isNegative() {
		x.neg(&x)
	}
	y.mul(&u1, &dy)
	t.mul(&x, &y)
	if !ok || t.isNegative() || y.isZero() {
		return false
	}
	p.x, p.y, p.z, p.t = x, y, feOne, t
	return true
}

// Encode returns p's canonical ristretto255 encoding (RFC 9496 §4.3.2).
func (p *Point) Encode() [32]byte {
	var u1, u2, t, inv, den1, den2, zinv, x, y, dinv fe
	t.add(&p.z, &p.y)
	u1.sub(&p.z, &p.y)
	u1.mul(&t, &u1)
	u2.mul(&p.x, &p.y)
	t.square(&u2)
	t.mul(&t, &u1)
	inv.sqrtRatio(&feOne, &t) // always a square for a point of 2E
	den1.mul(&inv, &u1)
	den2.mul(&inv, &u2)
	zinv.mul(&den1, &den2)
	zinv.mul(&zinv, &p.t)

	x, y, dinv = p.x, p.y, den2
	if t.mul(&p.t, &zinv).isNegative() {
		x.mul(&p.y, &feSqrtM1)
		y.mul(&p.x, &feSqrtM1)
		dinv.mul(&den1, &feInvSqrtAMinusD)
	}
	if t.mul(&x, &zinv).isNegative() {
		y.neg(&y)
	}
	t.sub(&p.z, &y)
	t.mul(&t, &dinv)
	if t.isNegative() {
		t.neg(&t)
	}
	return t.bytes()
}

// Equal reports whether p and q represent the same group element, i.e.
// differ by a point of E[4] (RFC 9496 §4.3.3).
func (p *Point) Equal(q *Point) bool {
	var a, b fe
	if a.mul(&p.x, &q.y).equal(b.mul(&p.y, &q.x)) {
		return true
	}
	return a.mul(&p.y, &q.y).equal(b.mul(&p.x, &q.x))
}

// HashToPoint derives a generator nobody knows a discrete logarithm of:
// the first SHA-256(tag ‖ counter), sign and top bits cleared, that
// decodes to a group element other than the identity.
func HashToPoint(tag string) Point {
	var p, id Point
	id.SetIdentity()
	for ctr := uint32(0); ; ctr++ {
		h := sha256.Sum256(binary.BigEndian.AppendUint32([]byte(tag), ctr))
		h[0] &^= 1
		h[31] &= 0x7f
		if p.Decode(h[:]) && !p.Equal(&id) {
			return p
		}
	}
}
