// Package sample implements the sampling primitives of the paper.
//
//   - Coin: "choose an item with probability 1/m" in O(log log m) bits and
//     O(1) time (Lemma 1) — generate a k-bit word and accept iff it is zero.
//   - Bernoulli: per-item sampling at a power-of-two rate. Footnote 3 of the
//     paper rounds every sampling probability down to the nearest power of
//     two so that Lemma 1 applies; PowerOfTwoFloor performs that rounding.
//   - Skip: the same Bernoulli process realized by geometric gap-skipping.
//     Next decides one item in O(1); Advance consumes a whole run of
//     items with O(1) work per *sampled* item rather than per stream
//     item — the batch ingest paths jump from one sample to the next
//     with it, and the same O(1)-per-sample work is what the paper
//     spreads across the following updates for its O(1) worst case
//     ("the time ... can be spread out across the next O(1/ε) stream
//     updates", §3.1).
package sample

import (
	"math"

	"repro/internal/rng"
)

// PowerOfTwoFloor returns the largest probability p' = 2^−k with p' ≤ p,
// together with k. Probabilities ≥ 1 round to (1, 0); the function panics
// for p ≤ 0 (a sketch asked to sample nothing is a configuration error).
func PowerOfTwoFloor(p float64) (pPrime float64, k uint) {
	if p <= 0 {
		panic("sample: probability must be positive")
	}
	if p >= 1 {
		return 1, 0
	}
	k = uint(math.Ceil(-math.Log2(p)))
	// Guard against floating point: ensure 2^-k <= p < 2^-(k-1).
	for math.Ldexp(1, -int(k)) > p {
		k++
	}
	for k > 0 && math.Ldexp(1, -int(k-1)) <= p {
		k--
	}
	if k > 62 {
		k = 62
	}
	return math.Ldexp(1, -int(k)), k
}

// Coin flips heads with probability exactly 2^−k (Lemma 1): draw a k-bit
// word, accept iff all bits are zero. k ≤ 62.
type Coin struct {
	k    uint
	mask uint64
	src  *rng.Source
}

// NewCoin returns a coin with heads-probability 2^−k.
func NewCoin(src *rng.Source, k uint) *Coin {
	if k > 62 {
		panic("sample: coin exponent too large")
	}
	return &Coin{k: k, mask: (uint64(1) << k) - 1, src: src}
}

// Flip reports whether the coin came up heads.
func (c *Coin) Flip() bool {
	if c.k == 0 {
		return true
	}
	return c.src.Uint64()&c.mask == 0
}

// Probability returns the heads probability 2^−k.
func (c *Coin) Probability() float64 { return math.Ldexp(1, -int(c.k)) }

// ModelBits is the space Lemma 1 charges: the coin needs to count k ≈ log m
// coin tosses, i.e. O(log log m) bits, plus the accept register.
func (c *Coin) ModelBits() int64 {
	return int64(bitsFor(uint64(c.k))) + 1
}

// Bernoulli samples each offered item independently with a power-of-two
// probability. It is Coin plus bookkeeping of how many items were offered
// and accepted.
type Bernoulli struct {
	coin     *Coin
	offered  uint64
	accepted uint64
}

// NewBernoulli returns a sampler accepting with the largest power-of-two
// probability ≤ p.
func NewBernoulli(src *rng.Source, p float64) *Bernoulli {
	_, k := PowerOfTwoFloor(p)
	return &Bernoulli{coin: NewCoin(src, k)}
}

// Next reports whether the next offered item is sampled.
func (b *Bernoulli) Next() bool {
	b.offered++
	if b.coin.Flip() {
		b.accepted++
		return true
	}
	return false
}

// Probability returns the effective (power-of-two) sampling probability.
func (b *Bernoulli) Probability() float64 { return b.coin.Probability() }

// Offered returns the number of items offered so far.
func (b *Bernoulli) Offered() uint64 { return b.offered }

// Accepted returns the number of items accepted so far.
func (b *Bernoulli) Accepted() uint64 { return b.accepted }

// ModelBits charges the coin plus the accepted-count register
// (the offered count is the stream position, which the paper does not
// charge to the algorithm).
func (b *Bernoulli) ModelBits() int64 {
	return b.coin.ModelBits() + int64(bitsFor(b.accepted)) + 1
}

// Skip realizes the same Bernoulli(2^−k) process by drawing geometric gaps:
// after each accepted item it draws the number of rejected items to skip.
// Advance skips a whole run of rejected items in one subtraction, so a
// batch costs O(1) per accepted item; Next decides one item, a decrement
// on the rejecting path. Both draw the same gaps from the same source,
// so any mix of the two samples the same positions and encodes the same
// state.
type Skip struct {
	p     float64
	invLn float64 // 1 / ln(1-p), cached; 0 when p == 1
	src   *rng.Source
	gap   uint64 // items to reject before the next accept
}

// NewSkip returns a gap sampler with the largest power-of-two probability
// ≤ p.
func NewSkip(src *rng.Source, p float64) *Skip {
	pp, _ := PowerOfTwoFloor(p)
	s := &Skip{p: pp, src: src}
	if pp < 1 {
		s.invLn = 1 / math.Log1p(-pp)
		s.gap = s.drawGap()
	}
	return s
}

// drawGap draws G ~ Geometric(p): the number of failures before the first
// success, via inversion.
func (s *Skip) drawGap() uint64 {
	u := s.src.Float64()
	for u == 0 {
		u = s.src.Float64()
	}
	g := math.Floor(math.Log(u) * s.invLn)
	if g < 0 {
		g = 0
	}
	if g > math.MaxUint64/2 {
		return math.MaxUint64 / 2
	}
	return uint64(g)
}

// Next reports whether the next offered item is sampled.
func (s *Skip) Next() bool { return s.Advance(1) == 0 }

// Advance offers the next n items and returns the offset of the first
// one sampled, or n when none is. It consumes the items up to and
// including that one, exactly as that many calls of Next would: the
// same gap draws, the same state after. A caller walks a batch by
// calling it again on the rest.
func (s *Skip) Advance(n int) int {
	if n == 0 || s.p >= 1 {
		return 0
	}
	if s.gap >= uint64(n) {
		s.gap -= uint64(n)
		return n
	}
	k := int(s.gap)
	s.gap = s.drawGap()
	return k
}

// Probability returns the effective sampling probability.
func (s *Skip) Probability() float64 { return s.p }

// bitsFor returns ⌈log₂(v+1)⌉, the width of a variable-length register
// holding v.
func bitsFor(v uint64) int {
	n := 0
	for v > 0 {
		n++
		v >>= 1
	}
	if n == 0 {
		return 1
	}
	return n
}
