// Package lossy implements the two sampling-based frequent-items baselines
// of Manku and Motwani [MM02] surveyed in the paper's introduction: Lossy
// Counting (deterministic) and Sticky Sampling (randomized).
package lossy

import (
	"math"
	"sort"

	"repro/internal/compact"
	"repro/internal/rng"
)

// Counting is the Lossy Counting summary. The stream is processed in
// windows of width ⌈1/ε⌉; at each window boundary, entries whose count
// plus slack falls below the window index are pruned. It guarantees
//
//	f(x) − ε·m  ≤  Estimate(x)  ≤  f(x)
//
// deterministically, storing O(ε⁻¹·log(εm)) entries in the worst case.
type Counting struct {
	eps      float64
	width    uint64
	counts   map[uint64]uint64
	deltas   map[uint64]uint64
	m        uint64
	window   uint64 // current window index (1-based)
	universe uint64
}

// NewCounting returns a Lossy Counting summary with error parameter ε.
func NewCounting(eps float64, universe uint64) *Counting {
	if eps <= 0 || eps >= 1 {
		panic("lossy: need 0 < eps < 1")
	}
	if universe == 0 {
		universe = 1 << 63
	}
	return &Counting{
		eps:      eps,
		width:    uint64(math.Ceil(1 / eps)),
		counts:   make(map[uint64]uint64),
		deltas:   make(map[uint64]uint64),
		window:   1,
		universe: universe,
	}
}

// Len returns the stream length processed so far.
func (c *Counting) Len() uint64 { return c.m }

// Insert processes one stream item.
func (c *Counting) Insert(x uint64) {
	c.m++
	if _, ok := c.counts[x]; ok {
		c.counts[x]++
	} else {
		c.counts[x] = 1
		c.deltas[x] = c.window - 1
	}
	if c.m%c.width == 0 {
		c.prune()
		c.window++
	}
}

// prune drops entries that cannot reach the error guarantee anymore.
func (c *Counting) prune() {
	for x, cnt := range c.counts {
		if cnt+c.deltas[x] <= c.window {
			delete(c.counts, x)
			delete(c.deltas, x)
		}
	}
}

// Estimate returns the summary's (under-)estimate of x's frequency.
func (c *Counting) Estimate(x uint64) uint64 { return c.counts[x] }

// Entries returns the number of tracked items.
func (c *Counting) Entries() int { return len(c.counts) }

// HeavyHitters returns tracked items with count ≥ threshold − ε·m, in
// decreasing-count order — the [MM02] output rule that guarantees recall
// of every item with f ≥ threshold.
func (c *Counting) HeavyHitters(threshold uint64) []uint64 {
	slack := uint64(c.eps * float64(c.m))
	cut := uint64(0)
	if threshold > slack {
		cut = threshold - slack
	}
	var out []uint64
	for x, cnt := range c.counts {
		if cnt >= cut {
			out = append(out, x)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ci, cj := c.counts[out[i]], c.counts[out[j]]
		if ci != cj {
			return ci > cj
		}
		return out[i] < out[j]
	})
	return out
}

// ModelBits charges each entry an id, a count register and a delta
// register.
func (c *Counting) ModelBits() int64 {
	idBits := compact.IDBits(c.universe)
	var b int64
	for x, cnt := range c.counts {
		b += idBits + compact.CounterBits(cnt) + compact.CounterBits(c.deltas[x])
	}
	return b
}

// Sticky is the Sticky Sampling summary: a randomized map whose sampling
// rate halves each epoch. It answers (ε, ϕ)-style queries with probability
// 1 − δ using O(ε⁻¹·log(1/(ϕδ))) entries in expectation, independent of m.
type Sticky struct {
	eps      float64
	t        float64 // (1/ε)·ln(1/(ϕδ))
	counts   map[uint64]uint64
	rate     uint64 // current inverse sampling rate (1, 2, 4, ...)
	boundary uint64 // stream position where the current epoch ends
	m        uint64
	src      *rng.Source
	universe uint64
}

// NewSticky returns a Sticky Sampling summary for support threshold ϕ,
// error ε and failure probability δ.
func NewSticky(src *rng.Source, eps, phi, delta float64, universe uint64) *Sticky {
	if eps <= 0 || eps >= 1 || phi <= 0 || phi > 1 || delta <= 0 || delta >= 1 {
		panic("lossy: bad sticky parameters")
	}
	if universe == 0 {
		universe = 1 << 63
	}
	t := math.Log(1/(phi*delta)) / eps
	return &Sticky{
		eps:      eps,
		t:        t,
		counts:   make(map[uint64]uint64),
		rate:     1,
		boundary: uint64(2 * t),
		m:        0,
		src:      src,
		universe: universe,
	}
}

// Len returns the stream length processed so far.
func (s *Sticky) Len() uint64 { return s.m }

// Insert processes one stream item.
func (s *Sticky) Insert(x uint64) {
	s.m++
	if s.m > s.boundary {
		s.rate *= 2
		s.boundary += uint64(s.t * float64(s.rate))
		s.resample()
	}
	if _, ok := s.counts[x]; ok {
		s.counts[x]++
		return
	}
	if s.src.Uint64n(s.rate) == 0 {
		s.counts[x] = 1
	}
}

// resample repeatedly tosses an unbiased coin for each entry, diminishing
// its count by the number of tails before the first head, per [MM02].
// Entries are visited in sorted order so the coin sequence is a
// deterministic function of the PRNG state (a fixed seed reproduces the
// same summary).
func (s *Sticky) resample() {
	keys := make([]uint64, 0, len(s.counts))
	for x := range s.counts {
		keys = append(keys, x)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, x := range keys {
		cnt := s.counts[x]
		for cnt > 0 && s.src.Bool() {
			cnt--
		}
		if cnt == 0 {
			delete(s.counts, x)
		} else {
			s.counts[x] = cnt
		}
	}
}

// Estimate returns the summary's (under-)estimate of x's frequency.
func (s *Sticky) Estimate(x uint64) uint64 { return s.counts[x] }

// Entries returns the number of tracked items.
func (s *Sticky) Entries() int { return len(s.counts) }

// HeavyHitters returns tracked items with count ≥ threshold − ε·m, in
// decreasing-count order.
func (s *Sticky) HeavyHitters(threshold uint64) []uint64 {
	slack := uint64(s.eps * float64(s.m))
	cut := uint64(0)
	if threshold > slack {
		cut = threshold - slack
	}
	var out []uint64
	for x, cnt := range s.counts {
		if cnt >= cut {
			out = append(out, x)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		ci, cj := s.counts[out[i]], s.counts[out[j]]
		if ci != cj {
			return ci > cj
		}
		return out[i] < out[j]
	})
	return out
}

// ModelBits charges each entry an id and a count register.
func (s *Sticky) ModelBits() int64 {
	return compact.MapBits(s.counts, s.universe)
}
