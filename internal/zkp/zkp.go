// Package zkp is the privacy plane's zero-knowledge layer: Pedersen
// commitments to the bits of a §3.3 minimum-operator vector and
// Σ-protocol proofs, under Fiat–Shamir, that a committed vector is
// well-formed — every position hides a bit and the bits are monotone
// non-decreasing — without opening anything.
//
// Group. Everything lives in ristretto255 (RFC 9496), the prime-order
// group internal/group carries on edwards25519: G is its base point, H a
// hash-derived generator of unknown discrete logarithm, and a commitment
// to bit b is C = b·G + r·H. Elements and scalars travel, and are held,
// as canonical 32-byte strings. The wire decoders refuse strings outside
// the canonical range (field elements ≥ p or negative, scalars ≥ ℓ); the
// verifiers decode every element before they evaluate anything, and
// refuse the proof if one string is not the one encoding of a group
// element. No other path leads from bytes to a point, and a decoded
// element has prime order by construction: there is no cofactor to clear
// and no small-order component that could satisfy an equation the honest
// point would not. Keeping elements compressed until a verifier needs
// them is what lets a memoized verdict (privplane) cost one hash.
//
// Proofs. Each position, and each difference C_{i+1} − C_i, carries a
// Cramer–Damgård–Schoenmakers OR-proof that it commits to 0 or to 1: two
// Schnorr transcripts for "X₀ = C is a multiple of H" and "X₁ = C − G
// is", one real, one simulated, whose challenges sum to the transcript
// hash. On the wire it is (A₀, A₁, e₀, z₀, z₁), 160 bytes;
// e₁ = H(ctx, C₁…C_K, j, A₀, A₁) − e₀ is derived. The prover multiplies
// no variable base: it knows how every statement, real or simulated,
// decomposes over (G, H), so each A is a fixed-base combination.
//
// Verification. K positions yield 2·(2K−1) equations z·H = A + e·X. The
// verifier draws an independent random 128-bit ρ per equation and checks
//
//	Σ ρ·(A + e·X − z·H) = O
//
// as one multi-scalar multiplication over {H, G, C₁…C_K, A…}; a false
// equation survives with probability 2⁻¹²⁸. The weights are the
// verifier's own: nothing the prover emits depends on them.
//
// This is still what §3.1 of the paper sets aside as a strawman — cost
// linear in the vector length against PVR's one hash per opening, the
// comparison experiment E4 keeps — affordable here because only third
// parties entitled to nothing else ask for it.
package zkp

import (
	"crypto/rand"
	"crypto/sha512"
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"

	"pvr/internal/group"
)

// The two generators. Their fixed-base tables are built on the first
// commitment or proof; a process that only verifies builds none.
var (
	genG     = &group.FixedBase{P: group.Base}
	genH     = &group.FixedBase{P: group.HashToPoint("pvr/zkp/h-generator/v2")}
	identity = *new(group.Point).SetIdentity()
)

// Commitment is a Pedersen commitment b·G + r·H in its canonical
// encoding. The zero value encodes the identity (a commitment to 0 with
// r = 0). One that came off the wire is a string in canonical range;
// that it names a group element is established by the verifier.
type Commitment struct{ enc [ElemSize]byte }

// Opening is the committed bit and blinding scalar.
type Opening struct {
	Bit bool
	R   *big.Int
}

// ErrBadProof is returned when verification fails.
var ErrBadProof = errors.New("zkp: proof verification failed")

func randScalar() (*big.Int, error) { return rand.Int(rand.Reader, group.Order) }

// pedersen returns g·G + h·H from the fixed-base tables.
func pedersen(g, h *big.Int) group.Point {
	var p, q group.Point
	genH.Mult(&p, h)
	if g.Sign() != 0 {
		p.Add(&p, genG.Mult(&q, g))
	}
	return p
}

// CommitBits commits position-wise to a bit vector, returning the
// commitments and openings the vector proofs consume.
func CommitBits(bits []bool) ([]Commitment, []Opening, error) {
	cs := make([]Commitment, len(bits))
	os := make([]Opening, len(bits))
	for i, bit := range bits {
		r, err := randScalar()
		if err != nil {
			return nil, nil, err
		}
		g := new(big.Int)
		if bit {
			g.SetInt64(1)
		}
		p := pedersen(g, r)
		cs[i], os[i] = Commitment{p.Encode()}, Opening{Bit: bit, R: r}
	}
	return cs, os, nil
}

// transcript is the Fiat–Shamir prefix all challenges of one vector
// share, hashed once: domain tag, caller's context, and the whole
// commitment vector — every proof is bound to every commitment.
type transcript [sha512.Size]byte

func newTranscript(ctx []byte, cs []Commitment) *transcript {
	h := sha512.New()
	h.Write([]byte("pvr/zkp/fiat-shamir/v2"))
	h.Write(binary.BigEndian.AppendUint32(nil, uint32(len(ctx))))
	h.Write(ctx)
	h.Write(MarshalCommitments(cs))
	var t transcript
	h.Sum(t[:0])
	return &t
}

// challenge derives the scalar for proof i of the given kind ('o': the
// OR-proofs; '0', '1': the pin to that value at position i) from the
// encodings of its As. 512 bits reduced mod ℓ are uniform to 2⁻²⁵⁹.
func (t *transcript) challenge(kind byte, i int, as ...[]byte) *big.Int {
	h := sha512.New()
	h.Write(t[:])
	h.Write(binary.BigEndian.AppendUint32([]byte{kind}, uint32(i)))
	for _, a := range as {
		h.Write(a)
	}
	e := group.ScalarFromLE(h.Sum(nil))
	return e.Mod(e, group.Order)
}

// VectorProof proves in zero knowledge that a committed bit vector is
// well-formed for the §3.3 minimum operator: each C_i hides a bit, and
// the bits are monotone non-decreasing. It reveals nothing about where
// the first 1 is — the verifier learns only "this is a valid promise
// vector", which is what a third party is entitled to under α.
type VectorProof struct {
	// enc holds the 2K−1 OR-proofs, orSize bytes each as
	// A₀ ‖ A₁ ‖ e₀ ‖ z₀ ‖ z₁: K bit proofs, then K−1 difference proofs.
	enc []byte
}

// positions returns K, the vector length the proof is shaped for.
func (vp *VectorProof) positions() int { return (len(vp.enc)/orSize + 1) / 2 }

// statement returns the commitment OR-proof j speaks about: position j,
// or for j ≥ k the difference of positions j−k+1 and j−k.
func statement(j, k int) (plus, minus int) {
	if j < k {
		return j, -1
	}
	return j - k + 1, j - k
}

// proveOr appends OR-proof j for a statement commitment that opens to
// (o.Bit, o.R). The false branch s is simulated: Aₛ = zₛ·H − eₛ·Xₛ with
// Xₛ = r·H ± G, hence Aₛ = (zₛ − eₛ·r)·H ∓ eₛ·G. A prover whose opening
// is not what it claims gets a proof that does not verify.
func (vp *VectorProof) proveOr(tr *transcript, j int, o Opening) error {
	var rnd [3]*big.Int // eSim, zSim, w
	for i := range rnd {
		var err error
		if rnd[i], err = randScalar(); err != nil {
			return err
		}
	}
	eSim, zSim, w := rnd[0], rnd[1], rnd[2]
	real, sim := 0, 1
	gCoef := eSim
	if o.Bit {
		real, sim = 1, 0
		gCoef = new(big.Int).Sub(group.Order, eSim)
	}
	hCoef := new(big.Int).Mul(eSim, o.R)
	hCoef.Mod(hCoef.Sub(zSim, hCoef), group.Order)

	var a [2]group.Point
	a[sim] = pedersen(gCoef, hCoef)
	genH.Mult(&a[real], w)
	enc := [2][ElemSize]byte{a[0].Encode(), a[1].Encode()}

	var e, z [2]*big.Int
	e[sim], z[sim] = eSim, zSim
	e[real] = tr.challenge('o', j, enc[0][:], enc[1][:])
	e[real].Mod(e[real].Sub(e[real], eSim), group.Order)
	z[real] = new(big.Int).Mul(e[real], o.R)
	z[real].Mod(z[real].Add(z[real], w), group.Order)

	vp.enc = append(append(vp.enc, enc[0][:]...), enc[1][:]...)
	for _, s := range []*big.Int{e[0], z[0], z[1]} {
		vp.enc = group.AppendScalar(vp.enc, s)
	}
	return nil
}

// prove runs the one prove loop: K bit proofs, then K−1 difference
// proofs. C_{i+1} − C_i commits to b_{i+1} − b_i under r_{i+1} − r_i, and
// the vector is monotone iff every difference is 0 or 1.
func prove(tr *transcript, os []Opening) (*VectorProof, error) {
	k := len(os)
	vp := &VectorProof{enc: make([]byte, 0, max(0, 2*k-1)*orSize)}
	for j := 0; j < 2*k-1; j++ {
		plus, minus := statement(j, k)
		o := os[plus]
		if minus >= 0 {
			r := new(big.Int).Sub(o.R, os[minus].R)
			o = Opening{Bit: o.Bit != os[minus].Bit, R: r.Mod(r, group.Order)}
		}
		if err := vp.proveOr(tr, j, o); err != nil {
			return nil, err
		}
	}
	return vp, nil
}

// equation is one Schnorr verification equation z·H = A + e·X, for the
// statement "X = C[plus] − C[minus] − g·G is a multiple of H" (minus < 0:
// nothing subtracted).
type equation struct {
	e, z        *big.Int
	plus, minus int
	g           bool
}

// batch collects one verification's equations and the decoded points
// they speak about: H, G, C_0 … C_{K−1}, then equation i's A at
// points[2+K+i]. Only here do bytes become points.
type batch struct {
	points []group.Point
	eqs    []equation
}

func newBatch(cs []Commitment, nEqs int) (*batch, error) {
	b := &batch{points: make([]group.Point, 2+len(cs), 2+len(cs)+nEqs), eqs: make([]equation, 0, nEqs)}
	b.points[0], b.points[1] = genH.P, genG.P
	for i := range cs {
		if !b.points[2+i].Decode(cs[i].enc[:]) {
			return nil, fmt.Errorf("%w: commitment %d is not a group element", ErrBadProof, i+1)
		}
	}
	return b, nil
}

func (b *batch) add(a []byte, eq equation) error {
	var p group.Point
	if !p.Decode(a) {
		return fmt.Errorf("%w: equation %d: A is not a group element", ErrBadProof, len(b.eqs))
	}
	b.points, b.eqs = append(b.points, p), append(b.eqs, eq)
	return nil
}

// addVector adds the two Schnorr equations of every OR-proof, deriving
// e₁. The scalars were range-checked at decode (or reduced by prove).
func (b *batch) addVector(tr *transcript, vp *VectorProof) error {
	k := vp.positions()
	for j := 0; (j+1)*orSize <= len(vp.enc); j++ {
		rec := vp.enc[j*orSize : (j+1)*orSize]
		a0, a1 := rec[:ElemSize], rec[ElemSize:2*ElemSize]
		e0 := group.ScalarFromLE(rec[2*ElemSize : 3*ElemSize])
		e1 := tr.challenge('o', j, a0, a1)
		e1.Mod(e1.Sub(e1, e0), group.Order)
		plus, minus := statement(j, k)
		if err := b.add(a0, equation{e0, group.ScalarFromLE(rec[3*ElemSize : 4*ElemSize]), plus, minus, false}); err != nil {
			return err
		}
		if err := b.add(a1, equation{e1, group.ScalarFromLE(rec[4*ElemSize:]), plus, minus, true}); err != nil {
			return err
		}
	}
	return nil
}

// check verifies every equation at once: with a fresh random 128-bit ρ
// each, Σ ρ·(A + e·X − z·H) must be the identity. The sum is regrouped
// by point — H, G, each C_i, each A — into one multi-scalar product.
func (b *batch) check() error {
	rho := make([]byte, 16*len(b.eqs))
	if _, err := rand.Read(rho); err != nil {
		return err
	}
	n := len(b.points) - len(b.eqs)
	scalars := make([][4]uint64, n, len(b.points))
	coef := make([]*big.Int, n) // on H, G, C_0 … C_{K−1}
	for i := range coef {
		coef[i] = new(big.Int)
	}
	t := new(big.Int)
	for i, eq := range b.eqs {
		r := new(big.Int).SetBytes(rho[16*i : 16*i+16])
		scalars = append(scalars, group.Limbs(r))
		coef[0].Sub(coef[0], t.Mul(r, eq.z))
		t.Mod(t.Mul(r, eq.e), group.Order)
		coef[2+eq.plus].Add(coef[2+eq.plus], t)
		if eq.minus >= 0 {
			coef[2+eq.minus].Sub(coef[2+eq.minus], t)
		}
		if eq.g {
			coef[1].Sub(coef[1], t)
		}
	}
	for i, c := range coef {
		scalars[i] = group.Limbs(c.Mod(c, group.Order))
	}
	if sum := group.MSM(b.points, scalars); !sum.Equal(&identity) {
		return ErrBadProof
	}
	return nil
}

// ProveVector builds the well-formedness proof for committed bits with
// openings. ctx binds the Fiat–Shamir challenges to the caller's context
// (prover identity, prefix, epoch, seal root).
func ProveVector(cs []Commitment, os []Opening, ctx []byte) (*VectorProof, error) {
	if len(cs) != len(os) {
		return nil, errors.New("zkp: commitment/opening length mismatch")
	}
	return prove(newTranscript(ctx, cs), os)
}

// vectorBatch decodes a vector proof's elements and lists its equations.
func vectorBatch(cs []Commitment, vp *VectorProof, ctx []byte) (*batch, *transcript, error) {
	if vp == nil || vp.positions() != len(cs) {
		return nil, nil, fmt.Errorf("%w: shape", ErrBadProof)
	}
	b, err := newBatch(cs, 2*len(vp.enc)/orSize)
	if err != nil {
		return nil, nil, err
	}
	tr := newTranscript(ctx, cs)
	return b, tr, b.addVector(tr, vp)
}

// VerifyVector checks a well-formedness proof against the public
// commitments under the same context the prover used.
func VerifyVector(cs []Commitment, vp *VectorProof, ctx []byte) error {
	b, _, err := vectorBatch(cs, vp, ctx)
	if err != nil {
		return err
	}
	return b.check()
}

// MonotoneProof is the §3.1 strawman E4 measures: a VectorProof plus the
// public minimum — Min is the 1-based position of the first 1, or 0 for
// the all-zero vector — pinned by Schnorr proofs that C_{Min-1} hides 0
// and C_Min hides 1 (for Min = 0, that the last position hides 0, which
// with monotonicity pins the whole vector).
type MonotoneProof struct {
	Min    int
	Vector *VectorProof
	pin    [2]*pin // pin[v] for the position pinned to v; nil where Min needs none
}

// pin is a Schnorr proof that a commitment hides a public value v: that
// X = C − v·G is a multiple of H. It carries A and z; the challenge is
// derived, not sent.
type pin struct {
	a [ElemSize]byte
	z *big.Int
}

// pins returns the 0-based positions a claimed minimum over k positions
// pins to 0 and to 1, −1 where there is none.
func pins(min, k int) [2]int {
	if min > 0 {
		return [2]int{min - 2, min - 1}
	}
	return [2]int{k - 1, -1}
}

// ProveMonotone builds the full proof for committed bits with openings.
// min must match the openings (the prover is honest here — a cheating
// prover simply fails verification).
func ProveMonotone(cs []Commitment, os []Opening, min int, ctx []byte) (*MonotoneProof, error) {
	if len(cs) != len(os) || min < 0 || min > len(cs) {
		return nil, errors.New("zkp: commitment/opening length mismatch or min out of range")
	}
	tr := newTranscript(ctx, cs)
	vp, err := prove(tr, os)
	if err != nil {
		return nil, err
	}
	mp := &MonotoneProof{Min: min, Vector: vp}
	for v, i := range pins(min, len(cs)) {
		if i < 0 {
			continue
		}
		w, err := randScalar()
		if err != nil {
			return nil, err
		}
		var a group.Point
		p := &pin{a: genH.Mult(&a, w).Encode()}
		p.z = tr.challenge('0'+byte(v), i, p.a[:])
		p.z.Mod(p.z.Add(p.z.Mul(p.z, os[i].R), w), group.Order)
		mp.pin[v] = p
	}
	return mp, nil
}

// batch lists the vector's equations and the pins', after checking that
// the proof has the shape its claimed minimum needs.
func (mp *MonotoneProof) batch(cs []Commitment, ctx []byte) (*batch, error) {
	if mp == nil || mp.Min < 0 || mp.Min > len(cs) {
		return nil, fmt.Errorf("%w: shape", ErrBadProof)
	}
	b, tr, err := vectorBatch(cs, mp.Vector, ctx)
	if err != nil {
		return nil, err
	}
	for v, i := range pins(mp.Min, len(cs)) {
		p := mp.pin[v]
		if (p == nil) != (i < 0) {
			return nil, fmt.Errorf("%w: pins", ErrBadProof)
		}
		if p == nil {
			continue
		}
		e := tr.challenge('0'+byte(v), i, p.a[:])
		if err := b.add(p.a[:], equation{e, p.z, i, -1, v == 1}); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// VerifyMonotone checks the proof against the public commitments and the
// claimed minimum: the vector's equations and the pins', in one batch.
func VerifyMonotone(cs []Commitment, mp *MonotoneProof, ctx []byte) error {
	b, err := mp.batch(cs, ctx)
	if err != nil {
		return err
	}
	return b.check()
}

// Size returns the proof's wire size in bytes (for the E4 experiment's
// size-scaling series): the vector proof, Min, and 64 bytes per pin.
func (mp *MonotoneProof) Size() int {
	n := mp.Vector.Size() + 4
	for _, p := range mp.pin {
		if p != nil {
			n += 2 * ElemSize
		}
	}
	return n
}
