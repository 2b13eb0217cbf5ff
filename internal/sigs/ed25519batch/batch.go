// Package ed25519batch verifies Ed25519 signatures in bulk on
// internal/group's edwards25519 arithmetic: one variable-time Pippenger
// multi-scalar multiplication evaluates the cofactored batch equation
// (see Verify) for a small constant number of point additions per
// signature, against a full double-scalar multiplication each when
// checked alone — which is what makes §3.8-style bulk verification of
// receipts, exports, and seals cheap.
package ed25519batch

import (
	"crypto/rand"
	"crypto/sha512"
	"errors"
	"math/big"

	"pvr/internal/group"
)

// PublicKey is a parsed, decompressed Ed25519 verification key, cached
// so a key checked thousands of times per epoch pays its point
// decompression once.
type PublicKey struct {
	raw [32]byte
	neg group.Point // -A, the form the batch equation consumes
}

// ParsePublicKey decompresses a 32-byte Ed25519 public key.
func ParsePublicKey(raw []byte) (*PublicKey, error) {
	if len(raw) != 32 {
		return nil, errors.New("ed25519batch: public key must be 32 bytes")
	}
	var pk PublicKey
	copy(pk.raw[:], raw)
	var a group.Point
	if !a.SetBytes(raw) {
		return nil, errors.New("ed25519batch: invalid public key point")
	}
	pk.neg.Neg(&a)
	return &pk, nil
}

// Item is one signature to verify: a parsed key, the message, and the
// 64-byte signature.
type Item struct {
	Key *PublicKey
	Msg []byte
	Sig []byte
}

// Verify checks a batch of Ed25519 signatures against the cofactored
// batch equation
//
//	[8]( [Σ zᵢsᵢ]B − Σ [zᵢ]Rᵢ − Σ [zᵢhᵢ]Aᵢ ) == O
//
// with fresh random 128-bit blinders zᵢ. It returns (true, -1) when
// every signature passes. On failure it returns (false, i) where i is
// the index of a structurally malformed item (bad length, non-canonical
// s, undecodable R), or (false, -1) when the equation itself failed and
// the caller should bisect to locate the offender.
//
// Semantics: acceptance here is the cofactored criterion. A signature
// deliberately crafted with a small-order component (something only the
// keyholder can produce) may pass batch verification while failing
// crypto/ed25519's cofactorless check; honestly generated signatures
// never differ. Callers who need exact stdlib semantics on rejection
// re-check failures individually, which is what sigs.BatchVerifier's
// bisection does.
func Verify(items []Item) (bool, int) {
	n := len(items)
	if n == 0 {
		return true, -1
	}

	// One batched read for all blinders.
	zbuf := make([]byte, 16*n)
	if _, err := rand.Read(zbuf); err != nil {
		return false, -1
	}

	negR := make([]group.Point, n)
	zLimbs := make([][4]uint64, n)
	sSum := new(big.Int)                     // Σ zᵢsᵢ mod l
	perKey := make(map[[32]byte]*big.Int, 4) // key -> Σ zᵢhᵢ mod l
	keyPts := make(map[[32]byte]*group.Point, 4)

	tmp := new(big.Int)
	for i, it := range items {
		if it.Key == nil || len(it.Sig) != 64 {
			return false, i
		}
		if !group.ScalarIsCanonical(it.Sig[32:]) {
			return false, i
		}
		var r group.Point
		if !r.SetBytes(it.Sig[:32]) {
			return false, i
		}
		negR[i].Neg(&r)

		z := new(big.Int).SetBytes(zbuf[16*i : 16*i+16])
		if z.Sign() == 0 {
			z.SetInt64(1)
		}
		zLimbs[i] = group.Limbs(z)

		// h = SHA512(R ‖ A ‖ M) mod l.
		h := sha512.New()
		h.Write(it.Sig[:32])
		h.Write(it.Key.raw[:])
		h.Write(it.Msg)
		hi := group.ScalarFromLE(h.Sum(nil))
		hi.Mod(hi, group.Order)

		s := group.ScalarFromLE(it.Sig[32:])
		sSum.Add(sSum, tmp.Mul(z, s))

		agg, ok := perKey[it.Key.raw]
		if !ok {
			agg = new(big.Int)
			perKey[it.Key.raw] = agg
			keyPts[it.Key.raw] = &it.Key.neg
		}
		agg.Add(agg, tmp.Mul(z, hi))
	}
	sSum.Mod(sSum, group.Order)

	// P = [Σzs]B + Σ [z](-R) + Σ_keys [Σzh](-A)
	var p, t group.Point
	p = group.MSM128(negR, zLimbs)
	group.ScalarMult(&t, &group.Base, sSum)
	p.Add(&p, &t)
	for kb, agg := range perKey {
		agg.Mod(agg, group.Order)
		group.ScalarMult(&t, keyPts[kb], agg)
		p.Add(&p, &t)
	}

	// Clear the cofactor and demand the identity.
	p.Double(&p)
	p.Double(&p)
	p.Double(&p)
	return p.IsIdentity(), -1
}
