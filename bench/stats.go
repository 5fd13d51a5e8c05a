package main

import (
	"math"
	"math/bits"
	"slices"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; 0 for an empty sample. xs is
// sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// median is percentile(xs, 0.5).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// quartiles returns Q1, Q2 and Q3 by the "exclusive" method of Python's
// statistics.quantiles(xs, n=4), the rule the benchmark's spreads are
// judged by. A single value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// iqrRatio is (Q3−Q1)/Q2, the spread of a sample relative to its median.
func iqrRatio(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// histogram is a log-linear latency histogram over nanoseconds: eight
// sub-buckets per power of two, so a quantile is within 12.5% of the
// true value. It keeps the traced run's per-span cost at one increment
// however many spans the shard hooks deliver.
type histogram struct {
	counts [64 * 8]int64
	n      int64
}

func (h *histogram) observe(ns int64) {
	h.counts[histIndex(max(ns, 0))]++
	h.n++
}

func histIndex(ns int64) int {
	if ns < 8 {
		return int(ns)
	}
	e := bits.Len64(uint64(ns)) - 1 // ns in [2^e, 2^(e+1))
	return e*8 + int(ns>>(e-3))&7
}

// quantile returns the lower edge of the bucket holding the q-quantile.
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.n)))
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= max(rank, 1) {
			if i < 8 {
				return float64(i)
			}
			e := i / 8
			return float64(int64(8+i%8) << (e - 3))
		}
	}
	return 0
}
