// Package cms implements the Count-Min sketch of Cormode and Muthukrishnan
// [CM05], one of the randomized baselines surveyed in the paper's
// introduction.
//
// With depth d = ⌈ln(1/δ)⌉ rows and width w = ⌈e/ε⌉ it guarantees
//
//	f(x)  ≤  Estimate(x)  ≤  f(x) + ε·m   with probability ≥ 1 − δ,
//
// using Θ(ε⁻¹·log(1/δ)·log m) bits of counters — more than the paper's
// optimal algorithm by the log m counter width, which is exactly the
// inefficiency Algorithm 2's accelerated counters remove.
package cms

import (
	"math"
	"sort"

	"repro/internal/compact"
	"repro/internal/hash"
	"repro/internal/rng"
)

// Sketch is a Count-Min sketch.
type Sketch struct {
	depth  int
	width  uint64
	rows   [][]uint64
	hashes []hash.Func
	m      uint64
}

// New returns a sketch with error ε·m and failure probability δ.
func New(src *rng.Source, eps, delta float64) *Sketch {
	if eps <= 0 || eps >= 1 || delta <= 0 || delta >= 1 {
		panic("cms: need 0 < eps, delta < 1")
	}
	depth := int(math.Ceil(math.Log(1 / delta)))
	if depth < 1 {
		depth = 1
	}
	width := uint64(math.Ceil(math.E / eps))
	return NewWithDims(src, depth, width)
}

// NewWithDims returns a sketch with explicit dimensions.
func NewWithDims(src *rng.Source, depth int, width uint64) *Sketch {
	if depth <= 0 || width == 0 {
		panic("cms: dimensions must be positive")
	}
	s := &Sketch{
		depth:  depth,
		width:  width,
		rows:   make([][]uint64, depth),
		hashes: make([]hash.Func, depth),
	}
	for i := range s.rows {
		s.rows[i] = make([]uint64, width)
		s.hashes[i] = hash.NewFunc(src, width)
	}
	return s
}

// Len returns the stream length processed so far.
func (s *Sketch) Len() uint64 { return s.m }

// Insert processes one stream item.
func (s *Sketch) Insert(x uint64) {
	s.m++
	for i, h := range s.hashes {
		s.rows[i][h.Hash(x)]++
	}
}

// Estimate returns the (over-)estimate of x's frequency: the minimum
// counter over the rows.
func (s *Sketch) Estimate(x uint64) uint64 {
	min := uint64(math.MaxUint64)
	for i, h := range s.hashes {
		if c := s.rows[i][h.Hash(x)]; c < min {
			min = c
		}
	}
	return min
}

// HeavyHitters evaluates the given candidate items and returns those whose
// estimate is at least threshold, in decreasing-estimate order. (A bare
// Count-Min sketch cannot enumerate items; candidates come from a
// Misra-Gries pass or from the universe when it is small.)
func (s *Sketch) HeavyHitters(candidates []uint64, threshold uint64) []uint64 {
	var out []uint64
	for _, x := range candidates {
		if s.Estimate(x) >= threshold {
			out = append(out, x)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ei, ej := s.Estimate(out[i]), s.Estimate(out[j])
		if ei != ej {
			return ei > ej
		}
		return out[i] < out[j]
	})
	return out
}

// Depth returns the number of rows.
func (s *Sketch) Depth() int { return s.depth }

// Width returns the number of counters per row.
func (s *Sketch) Width() uint64 { return s.width }

// ModelBits charges every counter at its variable-length cost plus the
// hash seeds.
func (s *Sketch) ModelBits() int64 {
	var b int64
	for _, row := range s.rows {
		for _, v := range row {
			b += compact.CounterBits(v)
		}
	}
	for _, h := range s.hashes {
		b += h.ModelBits()
	}
	return b
}
