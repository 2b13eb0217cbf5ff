// Wire forms. Both are canonical — fixed-width fields, one valid string
// per value — so decode∘encode is the identity on everything that
// decodes, the property the wire fuzzers pin. The decoders check length
// and range; whether an in-range string encodes a group element costs a
// square root to decide, and the verifiers decide it before they
// evaluate any equation (see the package comment).
package zkp

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"

	"pvr/internal/group"
)

// ElemSize is the encoding width of one group element or scalar.
const ElemSize = 32

// orSize is the width of one OR-proof: A₀, A₁, e₀, z₀, z₁.
const orSize = 5 * ElemSize

// MaxVectorLen bounds the number of commitments a serialized vector or
// proof may carry, mirroring core.MaxVectorLen so a hostile length field
// cannot drive allocation.
const MaxVectorLen = 1024

// vectorDigestTag domain-separates the commitment-vector digest sealed
// into engine leaves.
const vectorDigestTag = "pvr/zkp/vector-digest/v2"

// Size returns the exact serialized size in bytes.
func (vp *VectorProof) Size() int { return 4 + len(vp.enc) }

// MarshalBinary encodes the proof canonically: the vector length K as a
// u32, then the 2K−1 OR-proofs, bits before differences.
func (vp *VectorProof) MarshalBinary() ([]byte, error) {
	out := binary.BigEndian.AppendUint32(make([]byte, 0, vp.Size()), uint32(vp.positions()))
	return append(out, vp.enc...), nil
}

// UnmarshalBinary decodes MarshalBinary's encoding. It enforces the exact
// length the count implies and range-checks every element and scalar,
// so what it accepts round-trips byte for byte.
func (vp *VectorProof) UnmarshalBinary(b []byte) error {
	if len(b) < 4 {
		return errors.New("zkp: short proof")
	}
	k := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	if k > MaxVectorLen {
		return errors.New("zkp: proof shape out of range")
	}
	if len(b) != max(0, 2*k-1)*orSize {
		return errors.New("zkp: proof length mismatch")
	}
	for off := 0; off < len(b); off += ElemSize {
		field := b[off : off+ElemSize]
		if off%orSize < 2*ElemSize {
			if !group.InRange(field) {
				return errors.New("zkp: proof carries a non-canonical group element")
			}
		} else if !group.ScalarIsCanonical(field) {
			return errors.New("zkp: proof carries a non-canonical scalar")
		}
	}
	vp.enc = append([]byte(nil), b...)
	return nil
}

// MarshalCommitments encodes a commitment vector canonically: count u32,
// then each element's 32-byte encoding.
func MarshalCommitments(cs []Commitment) []byte {
	out := binary.BigEndian.AppendUint32(make([]byte, 0, 4+len(cs)*ElemSize), uint32(len(cs)))
	for i := range cs {
		out = append(out, cs[i].enc[:]...)
	}
	return out
}

// UnmarshalCommitments decodes MarshalCommitments' encoding, enforcing the
// exact length the count implies and the canonical range of each element.
func UnmarshalCommitments(b []byte) ([]Commitment, error) {
	if len(b) < 4 {
		return nil, errors.New("zkp: short commitment vector")
	}
	n := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	if n > MaxVectorLen {
		return nil, errors.New("zkp: commitment vector too long")
	}
	if len(b) != n*ElemSize {
		return nil, errors.New("zkp: commitment vector length mismatch")
	}
	out := make([]Commitment, n)
	for i := range out {
		if copy(out[i].enc[:], b[i*ElemSize:]); !group.InRange(out[i].enc[:]) {
			return nil, errors.New("zkp: commitment is not a canonical group element encoding")
		}
	}
	return out, nil
}

// DigestCommitments returns the digest of a commitment vector that the
// engine folds into its seal leaves: SHA-256 over the tagged canonical
// encoding. A seal covering this digest binds the Pedersen vector to the
// same signature that binds the hash-commitment vector, so a prover that
// seals mismatched vectors leaves transferable evidence.
func DigestCommitments(cs []Commitment) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte(vectorDigestTag))
	h.Write(MarshalCommitments(cs))
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}
