package group

import "math/big"

// Point is a curve point in extended homogeneous coordinates
// (X : Y : Z : T) with x = X/Z, y = Y/Z, xy = T/Z on the twisted
// Edwards curve -x² + y² = 1 + d·x²y² over GF(2^255-19). The zero Point
// is not on the curve: start from SetIdentity, SetBytes, Decode or Base.
type Point struct {
	x, y, z, t fe
}

// Curve constants, initialized from their RFC 8032 decimal values.
var (
	feD      fe    // d = -121665/121666
	feD2     fe    // 2d
	feSqrtM1 fe    // √-1 = 2^((p-1)/4)
	Base     Point // Ed25519's base point B, also the ristretto255 generator; read-only
)

func feFromDecimal(s string) fe {
	n, ok := new(big.Int).SetString(s, 10)
	if !ok {
		panic("group: bad constant")
	}
	var b [32]byte
	raw := n.Bytes() // big-endian
	for i, v := range raw {
		b[len(raw)-1-i] = v
	}
	var v fe
	if !v.setBytes(&b) {
		panic("group: non-canonical constant")
	}
	return v
}

func init() {
	feD = feFromDecimal("37095705934669439343138083508754565189542113879843219016388785533085940283555")
	feD2.add(&feD, &feD)
	feSqrtM1 = feFromDecimal("19681161376707505956807079304988542015446066515923890162744021073123829784752")
	Base.x = feFromDecimal("15112221349535400772501151409588531511454012693041857206046113283949847762202")
	Base.y = feFromDecimal("46316835694926478169428394003475163141307993866256225615783033603165251855960")
	Base.z = feOne
	Base.t.mul(&Base.x, &Base.y)
}

// SetIdentity sets p to the neutral element (0 : 1 : 1 : 0).
func (p *Point) SetIdentity() *Point {
	p.x = feZero
	p.y = feOne
	p.z = feOne
	p.t = feZero
	return p
}

// IsIdentity reports whether p is the neutral element.
func (p *Point) IsIdentity() bool {
	return p.x.isZero() && p.y.equal(&p.z)
}

// Neg sets p = -q: (-X : Y : Z : -T).
func (p *Point) Neg(q *Point) *Point {
	p.x.neg(&q.x)
	p.y = q.y
	p.z = q.z
	p.t.neg(&q.t)
	return p
}

// Add sets p = a + b using the extended-coordinates addition of
// Hisil–Wong–Carter–Dawson 2008 specialized to a = -1.
func (p *Point) Add(a, b *Point) *Point {
	var yPlusX1, yMinusX1, yPlusX2, yMinusX2, pp, mm, tt2d, zz2 fe
	yPlusX1.add(&a.y, &a.x)
	yMinusX1.sub(&a.y, &a.x)
	yPlusX2.add(&b.y, &b.x)
	yMinusX2.sub(&b.y, &b.x)
	pp.mul(&yPlusX1, &yPlusX2)
	mm.mul(&yMinusX1, &yMinusX2)
	tt2d.mul(&a.t, &b.t)
	tt2d.mul(&tt2d, &feD2)
	zz2.mul(&a.z, &b.z)
	zz2.add(&zz2, &zz2)

	var e, f, g, h fe
	e.sub(&pp, &mm)
	f.sub(&zz2, &tt2d)
	g.add(&zz2, &tt2d)
	h.add(&pp, &mm)

	p.x.mul(&e, &f)
	p.y.mul(&g, &h)
	p.z.mul(&f, &g)
	p.t.mul(&e, &h)
	return p
}

// Double sets p = 2a (dbl-2008-hwcd, a = -1).
func (p *Point) Double(a *Point) *Point {
	var xx, yy, zz2, xy, e, g, f, h fe
	xx.square(&a.x)
	yy.square(&a.y)
	zz2.square(&a.z)
	zz2.add(&zz2, &zz2)
	xy.add(&a.x, &a.y)
	e.square(&xy)
	e.sub(&e, &xx)
	e.sub(&e, &yy) // 2XY
	g.sub(&yy, &xx)
	f.sub(&g, &zz2)
	h.neg(&xx)
	h.sub(&h, &yy) // -(XX+YY)

	p.x.mul(&e, &f)
	p.y.mul(&g, &h)
	p.z.mul(&f, &g)
	p.t.mul(&e, &h)
	return p
}

// SetBytes decodes a compressed Edwards point (RFC 8032 §5.1.3),
// rejecting non-canonical y and unrecoverable x. Returns false on
// failure.
func (p *Point) SetBytes(in []byte) bool {
	if len(in) != 32 {
		return false
	}
	var b [32]byte
	copy(b[:], in)
	signBit := b[31] >> 7
	b[31] &= 0x7f
	var y fe
	if !y.setBytes(&b) {
		return false
	}

	// x² = (y²-1)/(dy²+1); x comes back as the non-negative root.
	var u, v, x fe
	u.square(&y)
	v.mul(&u, &feD)
	u.sub(&u, &feOne) // u = y² - 1
	v.add(&v, &feOne) // v = dy² + 1
	if !x.sqrtRatio(&u, &v) {
		return false // not a square: invalid point
	}

	if x.isZero() && signBit == 1 {
		return false // -0 is not canonical
	}
	if signBit == 1 {
		x.neg(&x)
	}

	p.x = x
	p.y = y
	p.z = feOne
	p.t.mul(&x, &y)
	return true
}
