package merkle

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Batch is the dense, index-addressed Merkle tree of §3.8: "it seems
// feasible to sign messages in batches, perhaps using a small MHT to reveal
// batched routes individually". A speaker accumulates a burst of updates,
// builds a Batch, signs only the root, and ships each update with its audit
// path, amortizing the signature across the batch.
type Batch struct {
	leaves [][HashSize]byte
	levels [][][HashSize]byte // levels[0] = leaves (padded), last = root
}

// NewBatch builds the tree over the given messages. The leaf count is
// padded to the next power of two by duplicating the last leaf hash, the
// standard construction; proofs carry the original index so padding cannot
// be confused with data.
//
// All node storage comes from one flat allocation (2·padded−1 hashes),
// and both leaf hashing and inner-level construction split across
// goroutines above a size threshold; the tree — padding included — is
// fully deterministic, so the parallel build produces bit-identical
// roots to the serial one.
func NewBatch(msgs [][]byte) (*Batch, error) {
	all := make([]int, len(msgs))
	for i := range all {
		all[i] = i
	}
	b := &Batch{}
	if err := b.Update(len(msgs), all, func(i int) []byte { return msgs[i] }); err != nil {
		return nil, err
	}
	return b, nil
}

// Update brings the tree to n messages in place, msg(i) being message i,
// rehashing only the leaves at the positions in changed (strictly
// ascending) and their ancestors: O(Δ log n) hashes. As a leaf hash binds
// its index, changed must list every position whose message or index
// differs from the last build, and every new position. The zero Batch is
// an empty tree; the result equals NewBatch over the same messages.
func (b *Batch) Update(n int, changed []int, msg func(i int) []byte) error {
	if n == 0 {
		return ErrEmptyTree
	}
	old := len(b.leaves)
	prev := -1
	for _, i := range changed {
		if i <= prev || i >= n {
			return fmt.Errorf("merkle: changed positions must ascend within 0..%d", n-1)
		}
		prev = i
	}
	if n > old && (len(changed) < n-old || changed[len(changed)-(n-old)] != old) {
		return fmt.Errorf("merkle: new positions %d..%d not listed as changed", old, n-1)
	}
	// A new shape keeps the valid leaf hashes and rebuilds every level.
	full := len(b.levels) == 0 || len(b.levels[0]) != paddedLen(n)
	if full {
		prev := b.leaves
		b.layout(n)
		copy(b.levels[0], prev[:min(old, n)])
	}
	level0 := b.levels[0]
	parChunks(len(changed), func(lo, hi int) {
		for _, i := range changed[lo:hi] {
			level0[i] = batchLeafHash(uint32(i), msg(i))
		}
	})
	b.leaves = level0[:n]
	from := len(level0) // every node at or past from is stale
	if n != old || (len(changed) > 0 && changed[len(changed)-1] == n-1) {
		for i := n; i < len(level0); i++ { // padding copies the last leaf
			level0[i] = level0[n-1]
		}
		from = n
	}
	if full {
		from = 0
	}
	b.rehashFrom(from, changed)
	return nil
}

func paddedLen(n int) int { return 1 << bits.Len(uint(n-1)) }

// layout allocates storage for a tree of n leaves: levels[0] holds the
// padded leaves, the last level the root, all in one flat allocation.
func (b *Batch) layout(n int) {
	padded := paddedLen(n)
	flat := make([][HashSize]byte, 2*padded-1)
	b.levels = make([][][HashSize]byte, 0, bits.Len(uint(padded)))
	for off, size := 0, padded; size >= 1; off, size = off+size, size/2 {
		b.levels = append(b.levels, flat[off:off+size:off+size])
	}
	b.leaves = b.levels[0][:n]
}

// rehashFrom recomputes the inner nodes above the leaves at the positions
// in sparse (ascending) and above every leaf at or past position from.
func (b *Batch) rehashFrom(from int, sparse []int) {
	for l := 1; l < len(b.levels); l++ {
		src, next := b.levels[l-1], b.levels[l]
		from >>= 1
		prev := -1
		for _, i := range sparse {
			p := i >> l
			if p >= from {
				break
			}
			if p != prev {
				next[p] = innerHash(src[2*p], src[2*p+1])
				prev = p
			}
		}
		parChunks(len(next)-from, func(lo, hi int) {
			for p := from + lo; p < from+hi; p++ {
				next[p] = innerHash(src[2*p], src[2*p+1])
			}
		})
	}
}

// batchLeafHash binds the message to its index so two equal messages at
// different positions have distinct leaves.
func batchLeafHash(idx uint32, msg []byte) [HashSize]byte {
	bp := getScratch()
	b := (*bp)[:0]
	b = append(b, tagLeaf)
	b = binary.BigEndian.AppendUint32(b, idx)
	b = append(b, msg...)
	out := sha256.Sum256(b)
	*bp = b
	putScratch(bp)
	return out
}

// Len returns the number of messages in the batch.
func (b *Batch) Len() int { return len(b.leaves) }

// Root returns the batch root; sign this once per batch.
func (b *Batch) Root() Root {
	return Root(b.levels[len(b.levels)-1][0])
}

// BatchProof authenticates one message of a batch against the signed root.
type BatchProof struct {
	Index    uint32
	Siblings [][HashSize]byte
}

// Prove returns the audit path for message i.
func (b *Batch) Prove(i int) (*BatchProof, error) {
	if i < 0 || i >= len(b.leaves) {
		return nil, fmt.Errorf("merkle: batch index %d out of range 0..%d", i, len(b.leaves)-1)
	}
	var sibs [][HashSize]byte
	idx := i
	for _, level := range b.levels[:len(b.levels)-1] {
		sibs = append(sibs, level[idx^1])
		idx >>= 1
	}
	return &BatchProof{Index: uint32(i), Siblings: sibs}, nil
}

// VerifyBatch checks that msg was the Index-th message of the batch with
// the given root.
func VerifyBatch(root Root, msg []byte, p *BatchProof) error {
	h := batchLeafHash(p.Index, msg)
	idx := int(p.Index)
	for _, sib := range p.Siblings {
		if idx&1 == 1 {
			h = innerHash(sib, h)
		} else {
			h = innerHash(h, sib)
		}
		idx >>= 1
	}
	if !hmac.Equal(h[:], root[:]) {
		return ErrBadProof
	}
	return nil
}

// MarshalBinary encodes the proof.
func (p *BatchProof) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	var u [4]byte
	binary.BigEndian.PutUint32(u[:], p.Index)
	buf.Write(u[:])
	binary.BigEndian.PutUint32(u[:], uint32(len(p.Siblings)))
	buf.Write(u[:])
	for _, s := range p.Siblings {
		buf.Write(s[:])
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes the MarshalBinary encoding.
func (p *BatchProof) UnmarshalBinary(b []byte) error {
	if len(b) < 8 {
		return ErrShortProof
	}
	idx := binary.BigEndian.Uint32(b)
	n := int(binary.BigEndian.Uint32(b[4:]))
	b = b[8:]
	if n > 64 || len(b) != n*HashSize {
		return ErrShortProof
	}
	sibs := make([][HashSize]byte, n)
	for i := range sibs {
		copy(sibs[i][:], b[i*HashSize:])
	}
	*p = BatchProof{Index: idx, Siblings: sibs}
	return nil
}
