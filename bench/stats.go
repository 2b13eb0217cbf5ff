package main

import (
	"math"
	"sort"
	"time"
)

// samples are raw per-operation measurements in one unit. Quantiles are
// read from the sorted raw values, never from histogram buckets.
type samples []float64

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile returns the exact q-quantile (0 ≤ q ≤ 1) by linear interpolation
// between the two closest ranks, so the median of an even-sized sample is
// the mean of its middle pair. An empty sample has no quantile: NaN.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	o := s.sorted()
	pos := q * float64(len(o)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return o[lo] + (o[hi]-o[lo])*(pos-float64(lo))
}

func (s samples) median() float64 { return s.quantile(0.5) }

func (s samples) sum() float64 {
	var sum float64
	for _, v := range s {
		sum += v
	}
	return sum
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return s.sum() / float64(len(s))
}

// tailLadder is where a tail percentile may sit; a sample supports one only
// if at least ten of its values lie beyond it.
var tailLadder = []float64{0.9999, 0.999, 0.99, 0.95, 0.90, 0.75}

// highestPercentile is the highest percentile of the ladder that n samples
// support, or 0 when n is too small for any (fewer than 40 samples).
func highestPercentile(n int) float64 {
	for _, p := range tailLadder {
		// Count what lies strictly beyond the percentile's rank.
		if float64(n)-math.Ceil(p*float64(n)) >= 10 {
			return p
		}
	}
	return 0
}

// rateSlice is the length of the slices a phase is cut into for ops_per_s:
// the median of the slices' rates, which a stall of the host lasting less
// than half the phase cannot move.
const rateSlice = 500 * time.Millisecond

// opInterval is n operations that ran from start to end.
type opInterval struct {
	start, end time.Time
	n          int
}

// sliceRates cuts [from, to) into whole slices and returns the operation
// rate (1/s) in each, an interval's operations being spread evenly over the
// time it ran: a 400-event window that straddles a boundary counts towards
// both slices in proportion.
func sliceRates(done []opInterval, from, to time.Time, slice time.Duration) samples {
	n := int(to.Sub(from) / slice)
	if n == 0 {
		return nil
	}
	rates := make(samples, n)
	for _, iv := range done {
		s, e := iv.start.Sub(from), iv.end.Sub(from)
		if e <= s {
			e = s + 1
		}
		perNano := float64(iv.n) / float64(e-s)
		for i := max(0, int(s/slice)); i < n && time.Duration(i)*slice < e; i++ {
			lo, hi := max(s, time.Duration(i)*slice), min(e, time.Duration(i+1)*slice)
			if hi > lo {
				rates[i] += perNano * float64(hi-lo)
			}
		}
	}
	for i := range rates {
		rates[i] /= slice.Seconds()
	}
	return rates
}
