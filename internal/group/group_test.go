package group

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha512"
	"encoding/hex"
	"fmt"
	"math/big"
	mrand "math/rand"
	"testing"
)

// --- field arithmetic ---

func feFromBig(t *testing.T, n *big.Int) fe {
	t.Helper()
	var b [32]byte
	raw := n.Bytes()
	for i, v := range raw {
		b[len(raw)-1-i] = v
	}
	var v fe
	if !v.setBytes(&b) {
		t.Fatalf("non-canonical input %v", n)
	}
	return v
}

func feToBig(v *fe) *big.Int {
	b := v.bytes()
	rev := make([]byte, 32)
	for i := range b {
		rev[31-i] = b[i]
	}
	return new(big.Int).SetBytes(rev)
}

var prime = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19))

func TestFieldOpsAgainstBig(t *testing.T) {
	rng := mrand.New(mrand.NewSource(7))
	for i := 0; i < 500; i++ {
		a := new(big.Int).Rand(rng, prime)
		b := new(big.Int).Rand(rng, prime)
		fa := feFromBig(t, a)
		fb := feFromBig(t, b)

		var sum, diff, prod, sq fe
		sum.add(&fa, &fb)
		diff.sub(&fa, &fb)
		prod.mul(&fa, &fb)
		sq.square(&fa)

		want := new(big.Int)
		if got := feToBig(&sum); got.Cmp(want.Mod(want.Add(a, b), prime)) != 0 {
			t.Fatalf("add mismatch: %v+%v got %v want %v", a, b, got, want)
		}
		if got := feToBig(&diff); got.Cmp(want.Mod(want.Sub(a, b), prime)) != 0 {
			t.Fatalf("sub mismatch")
		}
		if got := feToBig(&prod); got.Cmp(want.Mod(want.Mul(a, b), prime)) != 0 {
			t.Fatalf("mul mismatch")
		}
		if got := feToBig(&sq); got.Cmp(want.Mod(want.Mul(a, a), prime)) != 0 {
			t.Fatalf("square mismatch")
		}
	}
}

func TestFieldInvert(t *testing.T) {
	rng := mrand.New(mrand.NewSource(11))
	for i := 0; i < 50; i++ {
		a := new(big.Int).Rand(rng, prime)
		if a.Sign() == 0 {
			continue
		}
		fa := feFromBig(t, a)
		var inv, prod fe
		inv.invert(&fa)
		prod.mul(&fa, &inv)
		if !prod.equal(&feOne) {
			t.Fatalf("invert(%v) * a != 1", a)
		}
	}
}

func TestSetBytesRejectsNonCanonical(t *testing.T) {
	// p itself, little-endian: 0xed, 0xff … 0x7f.
	var b [32]byte
	b[0] = 0xed
	for i := 1; i < 31; i++ {
		b[i] = 0xff
	}
	b[31] = 0x7f
	var v fe
	if v.setBytes(&b) {
		t.Fatal("setBytes accepted p")
	}
	b[0] = 0xec // p-1 is canonical
	if !v.setBytes(&b) {
		t.Fatal("setBytes rejected p-1")
	}
}

// --- point arithmetic ---

// Bytes returns the RFC 8032 compressed encoding of p. Only tests encode
// Edwards points: Ed25519 verification decodes, ristretto has Encode.
func (p *Point) Bytes() [32]byte {
	var zinv, x, y fe
	zinv.invert(&p.z)
	x.mul(&p.x, &zinv)
	y.mul(&p.y, &zinv)
	out := y.bytes()
	if x.isNegative() {
		out[31] |= 0x80
	}
	return out
}

// invert sets v = a^(p-2) = a^(2^255 - 21) via pow22523:
// a^(2^255-21) = (a^(2^252-3))^8 · a^3.
func (v *fe) invert(a *fe) *fe {
	var t, a3 fe
	t.pow22523(a)
	t.square(&t)
	t.square(&t)
	t.square(&t) // a^(2^255 - 24)
	a3.square(a)
	a3.mul(&a3, a) // a³
	return v.mul(&t, &a3)
}

// onCurve checks -x² + y² = z² + d·t²/z²·… in projective form:
// (-X² + Y²)·Z² == Z⁴ + d·X²Y² and X·Y == Z·T.
func (p *Point) onCurve() bool {
	var xx, yy, zz, tz, xy, lhs, rhs, dxy fe
	xx.square(&p.x)
	yy.square(&p.y)
	zz.square(&p.z)
	lhs.sub(&yy, &xx)
	lhs.mul(&lhs, &zz)
	dxy.mul(&xx, &yy)
	dxy.mul(&dxy, &feD)
	rhs.square(&zz)
	rhs.add(&rhs, &dxy)
	if !lhs.equal(&rhs) {
		return false
	}
	xy.mul(&p.x, &p.y)
	tz.mul(&p.t, &p.z)
	return xy.equal(&tz)
}

func TestBasePointRoundTrip(t *testing.T) {
	if !Base.onCurve() {
		t.Fatal("base point constants are off the curve")
	}
	enc := Base.Bytes()
	// RFC 8032: B encodes as 0x58666666…66 (y = 4/5, x positive).
	if enc[31] != 0x66 || enc[0] != 0x58 {
		t.Fatalf("unexpected base point encoding %x", enc)
	}
	var p Point
	if !p.SetBytes(enc[:]) {
		t.Fatal("failed to decompress base point")
	}
	if !p.onCurve() {
		t.Fatal("decompressed base point off curve")
	}
	if got := p.Bytes(); got != enc {
		t.Fatalf("round trip mismatch: %x vs %x", got, enc)
	}
}

func TestAddDoubleConsistency(t *testing.T) {
	// 2B via double == B+B; [k]B stays on curve and matches add chains.
	var d, s Point
	d.Double(&Base)
	s.Add(&Base, &Base)
	if d.Bytes() != s.Bytes() {
		t.Fatal("double(B) != B+B")
	}
	if !d.onCurve() {
		t.Fatal("2B off curve")
	}
	// [5]B two ways.
	var p5a, p5b, t4 Point
	t4.Double(&d)       // 4B
	p5a.Add(&t4, &Base) // 5B
	ScalarMult(&p5b, &Base, big.NewInt(5))
	if p5a.Bytes() != p5b.Bytes() {
		t.Fatal("[5]B mismatch between add chain and ScalarMult")
	}
	// [l]B == identity.
	var pl Point
	ScalarMult(&pl, &Base, Order)
	if !pl.IsIdentity() {
		t.Fatal("[l]B != identity")
	}
}

func TestScalarMultMatchesStdlibKeys(t *testing.T) {
	// ed25519 public key = [a]B with a the clamped SHA512 half of the
	// seed; generate stdlib keys and reproduce the public point.
	for i := 0; i < 8; i++ {
		pub, priv, err := ed25519.GenerateKey(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		// Recompute A from the seed the way RFC 8032 does.
		seed := priv.Seed()
		a := clampedScalar(seed)
		var p Point
		ScalarMult(&p, &Base, a)
		if got := p.Bytes(); string(got[:]) != string(pub) {
			t.Fatalf("ScalarMult does not reproduce stdlib public key")
		}
	}
}

func clampedScalar(seed []byte) *big.Int {
	h := sha512Sum(seed)
	var k [32]byte
	copy(k[:], h[:32])
	k[0] &= 248
	k[31] &= 127
	k[31] |= 64
	return ScalarFromLE(k[:])
}

func sha512Sum(b []byte) [64]byte { return sha512.Sum512(b) }

// --- MSM ---

func TestMSM128MatchesNaive(t *testing.T) {
	rng := mrand.New(mrand.NewSource(3))
	for _, n := range []int{1, 2, 5, 33, 150} {
		pts := make([]Point, n)
		limbs := make([][4]uint64, n)
		var want Point
		want.SetIdentity()
		for i := 0; i < n; i++ {
			k := new(big.Int).Rand(rng, Order)
			ScalarMult(&pts[i], &Base, k) // arbitrary distinct points
			z := new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), 128))
			limbs[i] = Limbs(z)
			var term Point
			ScalarMult(&term, &pts[i], z)
			want.Add(&want, &term)
		}
		got := MSM128(pts, limbs)
		if got.Bytes() != want.Bytes() {
			t.Fatalf("MSM128 mismatch at n=%d", n)
		}
	}
}

func TestMSMMatchesNaive(t *testing.T) {
	rng := mrand.New(mrand.NewSource(5))
	for _, n := range []int{1, 3, 40, 150} {
		pts := make([]Point, n)
		limbs := make([][4]uint64, n)
		var want Point
		want.SetIdentity()
		for i := 0; i < n; i++ {
			ScalarMult(&pts[i], &Base, new(big.Int).Rand(rng, Order))
			k := new(big.Int).Rand(rng, Order)
			if i%3 == 0 { // short scalars mixed in, as in the zkp equation
				k.Rand(rng, new(big.Int).Lsh(big.NewInt(1), 128))
			}
			limbs[i] = Limbs(k)
			var term Point
			want.Add(&want, ScalarMult(&term, &pts[i], k))
		}
		if got := MSM(pts, limbs); got.Bytes() != want.Bytes() {
			t.Fatalf("MSM mismatch at n=%d", n)
		}
	}
}

func TestFixedBaseMatchesScalarMult(t *testing.T) {
	rng := mrand.New(mrand.NewSource(9))
	f := &FixedBase{P: HashToPoint("group test")}
	// Edge digits: zero, carries rippling through every window, the
	// digit 8 in every window, and the largest scalars.
	ks := []*big.Int{new(big.Int), big.NewInt(1), big.NewInt(16), new(big.Int).Sub(Order, big.NewInt(1)), Order,
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(1))}
	eights, _ := new(big.Int).SetString("0888888888888888888888888888888888888888888888888888888888888888", 16)
	ks = append(ks, eights, new(big.Int).Add(eights, big.NewInt(1)))
	for i := 0; i < 20; i++ {
		ks = append(ks, new(big.Int).Rand(rng, Order))
	}
	for _, k := range ks {
		var got, want Point
		if f.Mult(&got, k).Bytes() != ScalarMult(&want, &f.P, k).Bytes() {
			t.Fatalf("fixed-base [%v]P differs from double-and-add", k)
		}
	}
}

func TestAppendScalarRoundTrip(t *testing.T) {
	k := new(big.Int).Sub(Order, big.NewInt(12345))
	b := AppendScalar(nil, k)
	if len(b) != 32 || !ScalarIsCanonical(b) || ScalarFromLE(b).Cmp(k) != 0 {
		t.Fatalf("scalar encoding %x does not round-trip", b)
	}
	if ScalarIsCanonical(AppendScalar(nil, Order)) {
		t.Fatal("the group order passed as a canonical scalar")
	}
}

// --- ristretto255 ---

func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// RFC 9496 appendix A.1: encodings of [0]B … [15]B.
var ristrettoMultiples = []string{
	"0000000000000000000000000000000000000000000000000000000000000000",
	"e2f2ae0a6abc4e71a884a961c500515f58e30b6aa582dd8db6a65945e08d2d76",
	"6a493210f7499cd17fecb510ae0cea23a110e8d5b901f8acadd3095c73a3b919",
	"94741f5d5d52755ece4f23f044ee27d5d1ea1e2bd196b462166b16152a9d0259",
	"da80862773358b466ffadfe0b3293ab3d9fd53c5ea6c955358f568322daf6a57",
	"e882b131016b52c1d3337080187cf768423efccbb517bb495ab812c4160ff44e",
	"f64746d3c92b13050ed8d80236a7f0007c3b3f962f5ba793d19a601ebb1df403",
	"44f53520926ec81fbd5a387845beb7df85a96a24ece18738bdcfa6a7822a176d",
	"903293d8f2287ebe10e2374dc1a53e0bc887e592699f02d077d5263cdd55601c",
	"02622ace8f7303a31cafc63f8fc48fdc16e1c8c8d234b2f0d6685282a9076031",
	"20706fd788b2720a1ed2a5dad4952b01f413bcf0e7564de8cdc816689e2db95f",
	"bce83f8ba5dd2fa572864c24ba1810f9522bc6004afe95877ac73241cafdab42",
	"e4549ee16b9aa03099ca208c67adafcafa4c3f3e4e5303de6026e3ca8ff84460",
	"aa52e000df2e16f55fb1032fc33bc42742dad6bd5a8fc0be0167436c5948501f",
	"46376b80f409b29dc2b5f6f0c52591990896e5716f41477cd30085ab7f10301e",
	"e0c418f7c8d9c4cdd7395b93ea124f3ad99021bb681dfc3302a9d99a2e53e64e",
}

func TestRistrettoGeneratorMultiples(t *testing.T) {
	var p Point
	p.SetIdentity()
	for i, want := range ristrettoMultiples {
		if got := p.Encode(); hex.EncodeToString(got[:]) != want {
			t.Fatalf("[%d]B encodes as %x, want %s", i, got, want)
		}
		var q Point
		if !q.Decode(unhex(t, want)) || !q.Equal(&p) {
			t.Fatalf("[%d]B: decoding %s does not give the element back", i, want)
		}
		if got := q.Encode(); hex.EncodeToString(got[:]) != want {
			t.Fatalf("[%d]B: decode∘encode is not the identity", i)
		}
		p.Add(&p, &Base)
	}
}

// RFC 9496 appendix A.3, plus the three field-range encodings every
// decoder must refuse: p, p+1 and 2^255−1.
var ristrettoBadEncodings = map[string][]string{
	"non-canonical field element": {
		"00ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff",
		"ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
		"f3ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
		"edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
		"eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
	},
	"negative field element": {
		"0100000000000000000000000000000000000000000000000000000000000000",
		"01ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
		"ed57ffd8c914fb201471d1c3d245ce3c746fcbe63a3679d51b6a516ebebe0e20",
		"c34c4e1826e5d403b78e246e88aa051c36ccf0aafebffe137d148a2bf9104562",
		"c940e5a4404157cfb1628b108db051a8d439e1a421394ec4ebccb9ec92a8ac78",
		"47cfc5497c53dc8e61c91d17fd626ffb1c49e2bca94eed052281b510b1117a24",
		"f1c6165d33367351b0da8f6e4511010c68174a03b6581212c71c0e1d026c3c72",
		"87260f7a2f12495118360f02c26a470f450dadf34a413d21042b43b9d93e1309",
	},
	"non-square x²": {
		"26948d35ca62e643e26a83177332e6b6afeb9d08e4268b650f1f5bbd8d81d371",
		"4eac077a713c57b4f4397629a4145982c661f48044dd3f96427d40b147d9742f",
		"de6a7b00deadc788eb6b6c8d20c0ae96c2f2019078fa604fee5b87d6e989ad7b",
		"bcab477be20861e01e4a0e295284146a510150d9817763caf1a6f4b422d67042",
		"2a292df7e32cababbd9de088d1d1abec9fc0440f637ed2fba145094dc14bea08",
		"f4a9e534fc0d216c44b218fa0c42d99635a0127ee2e53c712f70609649fdff22",
		"8268436f8c4126196cf64b3c7ddbda90746a378625f9813dd9b8457077256731",
		"2810e5cbc2cc4d4eece54f61c6f69758e289aa7ab440b3cbeaa21995c2f4232b",
	},
	"negative x·y": {
		"3eb858e78f5a7254d8c9731174a94f76755fd3941c0ac93735c07ba14579630e",
		"a45fdc55c76448c049a1ab33f17023edfb2be3581e9c7aade8a6125215e04220",
		"d483fe813c6ba647ebbfd3ec41adca1c6130c2beeee9d9bf065c8d151c5f396e",
		"8a2e1d30050198c65a54483123960ccc38aef6848e1ec8f5f780e8523769ba32",
		"32888462f8b486c68ad7dd9610be5192bbeaf3b443951ac1a8118419d9fa097b",
		"227142501b9d4355ccba290404bde41575b037693cef1f438c47f8fbf35d1165",
		"5c37cc491da847cfeb9281d407efc41e15144c876e0170b499a96a22ed31e01e",
		"445425117cb8c90edcbc7c1cc0e74f747f2c1efa5630a967c64f287792a48a4b",
	},
	"s = −1, so y = 0": {
		"ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
	},
}

func TestRistrettoRejectsBadEncodings(t *testing.T) {
	for class, encs := range ristrettoBadEncodings {
		for _, enc := range encs {
			var p Point
			if p.Decode(unhex(t, enc)) {
				t.Errorf("%s: %s decoded", class, enc)
			}
		}
	}
	var p Point
	if p.Decode(make([]byte, 31)) || p.Decode(make([]byte, 33)) {
		t.Error("an encoding of the wrong length decoded")
	}
}

// smallOrder lists the RFC 8032 encodings of the eight points of E[8],
// as multiples 0…7 of a point of order eight (internal/zkp's tests carry
// the same list).
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

// torsion returns the eight points of E[8]: the multiples of a point of
// order exactly eight, found by clearing the prime-order part of curve
// points until one is left with full torsion.
func torsion(t testing.TB) [8]Point {
	t.Helper()
	var enc [32]byte
	for y := byte(2); ; y++ {
		enc[0] = y
		var p, t8, t4 Point
		if !p.SetBytes(enc[:]) {
			continue
		}
		ScalarMult(&t8, &p, Order)
		if t4.Double(&t8).Double(&t4).IsIdentity() {
			continue // order divides 4
		}
		var out [8]Point
		out[0].SetIdentity()
		for i := 1; i < 8; i++ {
			out[i].Add(&out[i-1], &t8)
		}
		var back Point
		if !back.Add(&out[7], &t8).IsIdentity() {
			t.Fatal("torsion generator does not have order 8")
		}
		return out
	}
}

// checkDecodesToPrimeOrder is what "decode is the guard" means: any
// string either fails to decode, or is the canonical encoding of an
// element of the prime-order group.
func checkDecodesToPrimeOrder(t testing.TB, what string, enc []byte) {
	t.Helper()
	var p, lp, id Point
	if !p.Decode(enc) {
		return
	}
	if got := p.Encode(); !bytes.Equal(got[:], enc) {
		t.Errorf("%s: %x decoded but re-encodes as %x", what, enc, got)
	}
	if !ScalarMult(&lp, &p, Order).Equal(id.SetIdentity()) {
		t.Errorf("%s: %x decoded to an element outside the prime-order group", what, enc)
	}
}

func TestRistrettoTorsionCannotReachTheGroup(t *testing.T) {
	tor := torsion(t)
	rejected := 0
	listed := map[string]bool{}
	for _, s := range smallOrder {
		listed[s] = true
	}
	for i := range tor {
		enc := tor[i].Bytes()
		if !listed[hex.EncodeToString(enc[:])] {
			t.Errorf("small-order point %x is missing from the smallOrder list", enc)
		}
		var p Point
		if !p.Decode(enc[:]) {
			rejected++
		}
		checkDecodesToPrimeOrder(t, fmt.Sprintf("small-order point %d", i), enc[:])
	}
	// Seven are refused; the eighth, (√−1, 0), compresses to all zeros —
	// which is the canonical encoding of the identity element.
	if rejected != 7 {
		t.Errorf("%d of the 8 small-order Edwards encodings refused, want 7", rejected)
	}

	h := HashToPoint("torsion test")
	for _, p := range []Point{Base, h} {
		want := p.Encode()
		for i := range tor {
			var q Point
			q.Add(&p, &tor[i])
			enc := q.Bytes()
			checkDecodesToPrimeOrder(t, fmt.Sprintf("valid point + torsion point %d", i), enc[:])
			if i%2 == 0 {
				// E[4]: the same element, so the same single encoding.
				if got := q.Encode(); got != want || !q.Equal(&p) {
					t.Errorf("adding 4-torsion point %d changed the element: %x vs %x", i, got, want)
				}
			} else if q.Equal(&p) {
				t.Errorf("adding the order-8 point %d compared equal", i)
			}
		}
	}
}

func TestRistrettoConstantsAndHashToPoint(t *testing.T) {
	var amd, chk fe
	amd.neg(&feOne)
	amd.sub(&amd, &feD) // a − d, a = −1
	chk.square(&feInvSqrtAMinusD)
	if !chk.mul(&chk, &amd).equal(&feOne) || feInvSqrtAMinusD.isNegative() {
		t.Fatal("feInvSqrtAMinusD is not the non-negative 1/√(a−d)")
	}
	h := HashToPoint("a tag")
	var lh, id Point
	if h2 := HashToPoint("a tag"); !h.Equal(&h2) || h.Equal(&Base) || !h.onCurve() {
		t.Fatal("HashToPoint is not a deterministic fresh generator")
	}
	if !ScalarMult(&lh, &h, Order).Equal(id.SetIdentity()) || h.Equal(&id) {
		t.Fatal("HashToPoint left the prime-order group")
	}
}

func FuzzRistrettoDecode(f *testing.F) {
	for _, s := range ristrettoMultiples {
		f.Add(unhex(f, s))
	}
	f.Add(unhex(f, "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"))
	f.Fuzz(func(t *testing.T, enc []byte) { checkDecodesToPrimeOrder(t, "fuzz", enc) })
}

// --- benchmarks ---

var sinkPoint Point

func BenchmarkFixedBaseMult(b *testing.B) {
	f := &FixedBase{P: Base}
	k := new(big.Int).Rand(mrand.New(mrand.NewSource(1)), Order)
	f.Mult(&sinkPoint, k) // build the table outside the timed loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Mult(&sinkPoint, k)
	}
}

func benchMSM(b *testing.B, n int, width uint, f func([]Point, [][4]uint64) Point) {
	rng := mrand.New(mrand.NewSource(2))
	pts := make([]Point, n)
	limbs := make([][4]uint64, n)
	for i := range pts {
		ScalarMult(&pts[i], &Base, new(big.Int).Rand(rng, Order))
		limbs[i] = Limbs(new(big.Int).Rand(rng, new(big.Int).Lsh(big.NewInt(1), width)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPoint = f(pts, limbs)
	}
}

func BenchmarkMSM64(b *testing.B)      { benchMSM(b, 64, 252, MSM) }
func BenchmarkMSM128(b *testing.B)     { benchMSM(b, 128, 252, MSM) }
func BenchmarkMSM64x128(b *testing.B)  { benchMSM(b, 64, 128, MSM128) }
func BenchmarkMSM128x128(b *testing.B) { benchMSM(b, 128, 128, MSM128) }

func BenchmarkRistrettoDecode(b *testing.B) {
	enc := unhex(b, ristrettoMultiples[7])
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkPoint.Decode(enc)
	}
}

func BenchmarkRistrettoEncode(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Base.Encode()
	}
}
