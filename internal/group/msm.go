package group

import (
	"math/big"
	"sync"
)

// ScalarMult computes [k]p by plain variable-time double-and-add. Used
// for the handful of high-weight terms in the batch equation (the base
// point and one aggregated term per distinct public key); the per-item
// terms go through the Pippenger path instead.
func ScalarMult(out, p *Point, k *big.Int) *Point {
	out.SetIdentity()
	if k.Sign() == 0 {
		return out
	}
	for i := k.BitLen() - 1; i >= 0; i-- {
		out.Double(out)
		if k.Bit(i) == 1 {
			out.Add(out, p)
		}
	}
	return out
}

// msmWindow picks the Pippenger window width for n points: minimizes
// windows·(n + 2^c) over the practical range.
func msmWindow(n int) uint {
	switch {
	case n < 8:
		return 3
	case n < 32:
		return 4
	case n < 128:
		return 6
	case n < 512:
		return 7
	case n < 2048:
		return 8
	default:
		return 10
	}
}

// MSM128 computes Σ [kᵢ]Pᵢ for scalars kᵢ < 2^128 (batch blinders): half
// the windows of the full-width MSM.
func MSM128(points []Point, scalars [][4]uint64) Point { return msm(points, scalars, 128) }

// MSM computes Σ [kᵢ]Pᵢ for scalars reduced mod Order. Short scalars
// mixed in cost nothing in the windows they do not reach.
func MSM(points []Point, scalars [][4]uint64) Point { return msm(points, scalars, 253) }

// msm is Pippenger's bucket method over scalars below 2^topBit. Points
// and scalars must have equal length.
func msm(points []Point, scalars [][4]uint64, topBit uint) Point {
	var acc Point
	acc.SetIdentity()
	n := len(points)
	if n == 0 {
		return acc
	}
	c := msmWindow(n)
	buckets := make([]Point, 1<<c)
	used := make([]bool, 1<<c)

	windows := (topBit + c - 1) / c
	for w := int(windows) - 1; w >= 0; w-- {
		for i := uint(0); i < c; i++ {
			acc.Double(&acc)
		}
		clear(used)
		pos := uint(w) * c
		for i := 0; i < n; i++ {
			d := digit(&scalars[i], pos, c)
			if d == 0 {
				continue
			}
			if !used[d] {
				buckets[d] = points[i]
				used[d] = true
			} else {
				buckets[d].Add(&buckets[d], &points[i])
			}
		}
		// Σ j·bucket[j] via the running-sum trick, skipping the empty
		// tail so sparse windows stay cheap.
		var running, windowSum Point
		running.SetIdentity()
		windowSum.SetIdentity()
		any := false
		for j := len(buckets) - 1; j >= 1; j-- {
			if used[j] {
				running.Add(&running, &buckets[j])
				any = true
			}
			if any {
				windowSum.Add(&windowSum, &running)
			}
		}
		if any {
			acc.Add(&acc, &windowSum)
		}
	}
	return acc
}

// FixedBase multiplies one generator P by many scalars: 64 additions
// each, whatever the scalar, from a table of the multiples 0…8 of
// 16^w·P for each of the 64 radix-16 windows, read with signed digits.
// The table (90 KB) is built on first use; a FixedBase must not be
// copied.
type FixedBase struct {
	P     Point
	once  sync.Once
	table *[64][9]Point // table[w][d] = [d·16^w]P
}

// Mult sets out = [k]P for 0 ≤ k < 2^255.
func (f *FixedBase) Mult(out *Point, k *big.Int) *Point {
	f.once.Do(func() {
		f.table = new([64][9]Point)
		base := f.P
		for w := range f.table {
			row := &f.table[w]
			row[0].SetIdentity()
			for d := 1; d < len(row); d++ {
				row[d].Add(&row[d-1], &base)
			}
			base.Double(&row[8])
		}
	})
	limbs := Limbs(k)
	out.SetIdentity()
	var neg Point
	carry := uint64(0)
	for w := range f.table {
		// Digits in [−7, 8]: a nibble above 8 counts as itself minus 16
		// and carries one into the next window.
		d := digit(&limbs, uint(4*w), 4) + carry
		if carry = 0; d <= 8 {
			out.Add(out, &f.table[w][d])
			continue
		}
		carry = 1
		out.Add(out, neg.Neg(&f.table[w][16-d]))
	}
	return out
}
