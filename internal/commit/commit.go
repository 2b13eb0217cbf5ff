// Package commit implements the hash commitments of the paper's first PVR
// building block (§3.4): binding, hiding commitments c = H(tag ‖ value ‖ p)
// with a random blinding nonce p, plus the monotone bit-vector commitments
// used by the minimum operator (§3.3).
//
// The blinding nonce is essential: as the paper's footnote 2 notes, without
// p any neighbor could test whether c = H(0) or c = H(1). Each value is
// committed under a domain-separation tag so commitments to different
// protocol fields can never be confused.
package commit

import (
	"bytes"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
)

// Size is the byte length of a commitment and of the blinding nonce.
const Size = sha256.Size

// Commitment is the public, binding digest published to neighbors.
type Commitment [Size]byte

// String renders a short hex form for logs.
func (c Commitment) String() string { return fmt.Sprintf("%x…", c[:6]) }

// Opening is the secret needed to open a commitment: the committed value
// and the blinding nonce. Reveal an Opening only to authorized parties.
type Opening struct {
	Tag   string
	Value []byte
	Nonce [Size]byte
}

// Errors returned by verification.
var (
	ErrMismatch = errors.New("commit: opening does not match commitment")
	ErrShort    = errors.New("commit: malformed encoding")
)

// Committer creates commitments, drawing nonces from Rand (crypto/rand by
// default; tests may inject a deterministic reader).
type Committer struct {
	// Rand is the nonce source; nil means crypto/rand.Reader.
	Rand io.Reader
}

func (c *Committer) rand() io.Reader {
	if c.Rand != nil {
		return c.Rand
	}
	return rand.Reader
}

// digest computes H(len(tag) ‖ tag ‖ len(value) ‖ value ‖ nonce): the
// explicit lengths make the preimage encoding unambiguous.
func digest(tag string, value []byte, nonce [Size]byte) Commitment {
	h := sha256.New()
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(tag)))
	h.Write(l[:])
	h.Write([]byte(tag))
	binary.BigEndian.PutUint32(l[:], uint32(len(value)))
	h.Write(l[:])
	h.Write(value)
	h.Write(nonce[:])
	var out Commitment
	h.Sum(out[:0])
	return out
}

// Commit commits to value under the given domain-separation tag.
func (c *Committer) Commit(tag string, value []byte) (Commitment, Opening, error) {
	var o Opening
	o.Tag = tag
	o.Value = append([]byte(nil), value...)
	if _, err := io.ReadFull(c.rand(), o.Nonce[:]); err != nil {
		return Commitment{}, Opening{}, fmt.Errorf("commit: nonce: %w", err)
	}
	return digest(tag, o.Value, o.Nonce), o, nil
}

// CommitBit commits to a single bit, the operation used for the existential
// operator's b and the minimum operator's b_i (paper §3.2–3.3).
func (c *Committer) CommitBit(tag string, bit bool) (Commitment, Opening, error) {
	v := []byte{0}
	if bit {
		v[0] = 1
	}
	return c.Commit(tag, v)
}

// Verify checks an opening against a commitment in constant time.
func Verify(cm Commitment, o Opening) error {
	want := digest(o.Tag, o.Value, o.Nonce)
	if !hmac.Equal(want[:], cm[:]) {
		return ErrMismatch
	}
	return nil
}

// Bit interprets a verified opening as a bit. It fails if the value is not
// exactly one byte of 0 or 1 — a malformed "bit" must not verify.
func (o Opening) Bit() (bool, error) {
	if len(o.Value) != 1 || o.Value[0] > 1 {
		return false, fmt.Errorf("commit: value is not a bit: %x", o.Value)
	}
	return o.Value[0] == 1, nil
}

// MarshalBinary encodes the opening (tag, value, nonce) with explicit
// lengths.
func (o Opening) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(o.Tag)))
	buf.Write(l[:])
	buf.WriteString(o.Tag)
	binary.BigEndian.PutUint32(l[:], uint32(len(o.Value)))
	buf.Write(l[:])
	buf.Write(o.Value)
	buf.Write(o.Nonce[:])
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes the MarshalBinary encoding.
func (o *Opening) UnmarshalBinary(b []byte) error {
	if len(b) < 4 {
		return ErrShort
	}
	tl := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	if len(b) < tl+4 {
		return ErrShort
	}
	tag := string(b[:tl])
	b = b[tl:]
	vl := int(binary.BigEndian.Uint32(b))
	b = b[4:]
	if len(b) != vl+Size {
		return ErrShort
	}
	val := append([]byte(nil), b[:vl]...)
	b = b[vl:]
	var n [Size]byte
	copy(n[:], b)
	*o = Opening{Tag: tag, Value: val, Nonce: n}
	return nil
}

// BitVector is the minimum operator's committed vector (paper §3.3):
// bits[i] (1-based position i+1) means "at least one input route has AS-path
// length ≤ i+1". A well-formed vector is monotone non-decreasing.
type BitVector struct {
	Commitments []Commitment
	// What an opening cannot be rebuilt from: the vector's id, its bits
	// and their nonces. A prover holds a vector per prefix for as long as
	// the prefix stays sealed, so the tag (VectorTag(id, i)) and the value
	// slice of every opening are made when one is asked for, not kept.
	id     string
	bits   []bool
	nonces [][Size]byte
}

// VectorTag returns the domain-separation tag for position i (1-based) of a
// bit vector identified by id (e.g. "AS64500/203.0.113.0/24/epoch7").
func VectorTag(id string, i int) string {
	return "pvr/bitvec/" + id + "/" + strconv.Itoa(i)
}

// CommitBitVector commits position-wise to bits[0..k-1]. The bits must be
// monotone (once true, stays true); this is the prover-side well-formedness
// the verifier B later checks on the revealed vector.
func (c *Committer) CommitBitVector(id string, bits []bool) (*BitVector, error) {
	for i := 1; i < len(bits); i++ {
		if bits[i-1] && !bits[i] {
			return nil, fmt.Errorf("commit: bit vector not monotone at %d", i)
		}
	}
	bv := &BitVector{
		Commitments: make([]Commitment, len(bits)),
		id:          id,
		bits:        append([]bool(nil), bits...),
		nonces:      make([][Size]byte, len(bits)),
	}
	for i, b := range bits {
		cm, op, err := c.CommitBit(VectorTag(id, i+1), b)
		if err != nil {
			return nil, err
		}
		bv.Commitments[i] = cm
		bv.nonces[i] = op.Nonce
	}
	return bv, nil
}

// opening rebuilds the opening for 1-based position i.
func (bv *BitVector) opening(i int) Opening {
	v := []byte{0}
	if bv.bits[i-1] {
		v[0] = 1
	}
	return Opening{Tag: VectorTag(bv.id, i), Value: v, Nonce: bv.nonces[i-1]}
}

// Open returns the opening for 1-based position i; this is what A reveals
// to a neighbor N_i that supplied a route of length i (§3.3).
func (bv *BitVector) Open(i int) (Opening, error) {
	if i < 1 || i > len(bv.bits) {
		return Opening{}, fmt.Errorf("commit: position %d out of range 1..%d", i, len(bv.bits))
	}
	return bv.opening(i), nil
}

// OpenAll returns every opening in order; this is what A reveals to the
// promisee B, which checks the full vector.
func (bv *BitVector) OpenAll() []Opening {
	out := make([]Opening, len(bv.bits))
	for i := range out {
		out[i] = bv.opening(i + 1)
	}
	return out
}

// Len returns the vector length k (the maximum AS-path length).
func (bv *BitVector) Len() int { return len(bv.Commitments) }

// MinFromBits returns the smallest 1-based position whose bit is set, i.e.
// the minimum route length the vector claims, and ok=false if no bit is set
// (no route exists).
func MinFromBits(bits []bool) (int, bool) {
	for i, b := range bits {
		if b {
			return i + 1, true
		}
	}
	return 0, false
}

// CheckMonotone verifies that revealed bits are monotone non-decreasing,
// condition (b) that B checks in §3.3 ("if some b_i is set, all b_j, j > i,
// must also be set").
func CheckMonotone(bits []bool) error {
	for i := 1; i < len(bits); i++ {
		if bits[i-1] && !bits[i] {
			return fmt.Errorf("commit: vector not monotone: bit %d set but bit %d clear", i, i+1)
		}
	}
	return nil
}
