// Package hash implements the universal hash families the paper relies on
// (Definition 2, Lemma 2).
//
// The workhorse is the Carter–Wegman family h(x) = ((a·x + b) mod p) mod r
// over the Mersenne prime p = 2⁶¹ − 1. For a ∈ [1, p), b ∈ [0, p) chosen
// uniformly, the family is universal: Pr[h(x) = h(y)] ≤ 1/r + o(1/r) for
// x ≠ y. Storing a member takes two words — the O(log n) bits the paper
// charges for "picking a hash function uniformly at random from H"
// (proof of Theorem 1).
//
// A tabulation-hashing family is also provided; it is 3-independent and
// much stronger in practice, at the cost of 8·256 words of space. The core
// algorithms default to Carter–Wegman to match the paper's accounting.
package hash

import (
	"math/bits"

	"repro/internal/rng"
)

// Mersenne61 is the modulus 2⁶¹ − 1 used by the Carter–Wegman family.
const Mersenne61 uint64 = 1<<61 - 1

// Func is one member of a universal family mapping uint64 keys to [0, R).
type Func struct {
	a, b uint64 // a ∈ [1, Mersenne61), b ∈ [0, Mersenne61)
	r    uint64 // range size
	// rinv is ⌊(2⁶⁴−1)/r⌋, derived from r, so the final mod r is a
	// multiply-high and one conditional subtract instead of a 64-bit DIV.
	// It is never encoded and not charged by ModelBits.
	rinv uint64
}

// newFunc builds a member from its coefficients, deriving the cached
// reciprocal (0 for the invalid range 0, which Valid rejects).
func newFunc(a, b, r uint64) Func {
	f := Func{a: a, b: b, r: r}
	if r != 0 {
		f.rinv = ^uint64(0) / r
	}
	return f
}

// NewFunc draws one member of the Carter–Wegman family with range [0, r)
// using randomness from src. It panics if r == 0.
func NewFunc(src *rng.Source, r uint64) Func {
	if r == 0 {
		panic("hash: range must be positive")
	}
	a := src.Uint64n(Mersenne61-1) + 1 // a ∈ [1, p)
	b := src.Uint64n(Mersenne61)       // b ∈ [0, p)
	return newFunc(a, b, r)
}

// Hash evaluates the function on x.
func (f Func) Hash(x uint64) uint64 {
	return f.reduce(f.affine(modMersenne61(x)))
}

// HashAll evaluates every member of fs on x into dst[:len(fs)]: x is
// reduced modulo p once, and each member costs one multiply, one fold
// and one multiply-high. dst must hold at least len(fs) entries.
func HashAll(fs []Func, x uint64, dst []uint64) {
	x = modMersenne61(x)
	dst = dst[:len(fs)]
	for i := range fs {
		dst[i] = fs[i].reduce(fs[i].affine(x))
	}
}

// affine returns (a·x + b) mod p for x already reduced below p. With
// a, x < p the product is below 2¹²², so its two 61-bit halves plus b sum
// below 3·2⁶¹, and one fold (2⁶¹ ≡ 1) plus one conditional subtract
// leaves the canonical residue in [0, p).
func (f *Func) affine(x uint64) uint64 {
	hi, lo := bits.Mul64(f.a, x)
	s := (lo & Mersenne61) + (lo>>61 | hi<<3) + f.b
	s = (s & Mersenne61) + (s >> 61)
	if s >= Mersenne61 {
		s -= Mersenne61
	}
	return s
}

// reduce returns v mod r without a division. q = ⌊v·rinv/2⁶⁴⌋ is ⌊v/r⌋
// or one less for every v < 2⁶⁴ and r ≥ 1 (rinv undershoots (2⁶⁴−1)/r by
// less than 1, which costs v·(1+e)/(r·2⁶⁴) < 1 in the quotient), so one
// conditional subtract finishes the remainder.
func (f *Func) reduce(v uint64) uint64 {
	q, _ := bits.Mul64(v, f.rinv)
	v -= q * f.r
	if v >= f.r {
		v -= f.r
	}
	return v
}

// Range returns the size of the hash range [0, Range()).
func (f Func) Range() uint64 { return f.r }

// Valid reports whether f is a member NewFunc could have drawn: a ∈
// [1, p), b ∈ [0, p) and r ≥ 1. Decoders reject anything else, because
// Hash's single fold is exact only on that family.
func (f Func) Valid() bool {
	return f.a >= 1 && f.a < Mersenne61 && f.b < Mersenne61 && f.r >= 1
}

// ModelBits is the storage charged for the function under the paper's
// accounting: two coefficients of ⌈log₂ p⌉ = 61 bits each, plus the range
// (word-sized).
func (f Func) ModelBits() int64 { return 2*61 + 64 }

// modMersenne61 reduces x modulo 2⁶¹ − 1 (x arbitrary).
func modMersenne61(x uint64) uint64 {
	x = (x & Mersenne61) + (x >> 61)
	if x >= Mersenne61 {
		x -= Mersenne61
	}
	return x
}

// Sign is a member of a universal family mapping keys to {−1, +1}; used by
// the CountSketch baseline [CCFC04].
type Sign struct {
	f Func
}

// NewSign draws a sign hash using randomness from src.
func NewSign(src *rng.Source) Sign {
	return Sign{f: NewFunc(src, 2)}
}

// Hash returns −1 or +1 for x.
func (s Sign) Hash(x uint64) int64 {
	if s.f.Hash(x) == 0 {
		return -1
	}
	return 1
}

// ModelBits is the storage charged for the sign function.
func (s Sign) ModelBits() int64 { return s.f.ModelBits() }
