package group

import (
	"encoding/binary"
	"math/big"
	"slices"
)

// Order is the prime order ℓ = 2^252 + 27742317777372353535851937790883648493
// of the Ed25519 base-point subgroup. Scalar arithmetic rides on
// math/big: batch verification performs a handful of 256-bit modular
// multiplications per signature, which is noise next to the point
// arithmetic, and big.Int keeps the reduction logic out of hand-rolled
// limb code. Variable time is fine here — see the package comment.
var Order, _ = new(big.Int).SetString(
	"7237005577332262213973186563042994240857116359379907606001950938285454250989", 10)

// ScalarFromLE interprets b (little-endian) as an integer; the caller
// reduces mod Order where needed.
func ScalarFromLE(b []byte) *big.Int {
	rev := slices.Clone(b)
	slices.Reverse(rev)
	return new(big.Int).SetBytes(rev)
}

// AppendScalar appends the 32-byte little-endian encoding of 0 ≤ k < 2^256.
func AppendScalar(dst []byte, k *big.Int) []byte {
	var buf [32]byte
	slices.Reverse(k.FillBytes(buf[:])) // FillBytes is big-endian
	return append(dst, buf[:]...)
}

// ScalarIsCanonical reports whether the 32-byte little-endian scalar is
// fully reduced (< Order), the check Ed25519 verification mandates on
// the signature's s component (RFC 8032 §5.1.7).
func ScalarIsCanonical(b []byte) bool { return len(b) == 32 && ScalarFromLE(b).Cmp(Order) < 0 }

// Limbs converts a non-negative k < 2^256 to little-endian 64-bit
// limbs for windowed digit extraction.
func Limbs(k *big.Int) [4]uint64 {
	var out [4]uint64
	var buf [32]byte
	k.FillBytes(buf[:]) // big-endian
	for i := range out {
		out[i] = binary.BigEndian.Uint64(buf[24-8*i:])
	}
	return out
}

// digit extracts the c-bit window starting at bit position pos.
func digit(limbs *[4]uint64, pos, c uint) uint64 {
	idx := pos / 64
	shift := pos % 64
	if idx >= 4 {
		return 0
	}
	d := limbs[idx] >> shift
	if shift+c > 64 && idx+1 < 4 {
		d |= limbs[idx+1] << (64 - shift)
	}
	return d & ((1 << c) - 1)
}
