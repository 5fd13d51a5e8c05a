// Package stats holds the closed-form Table 1 bounds the benchmark
// harness compares measured space against, and the clamped log₂ they
// are stated with.
package stats

import "math"

// Log2 is log₂ clamped so that arguments ≤ 1 contribute at least 1 bit —
// the convention used when instantiating the Table 1 formulas (every term
// of a space bound is at least one register).
func Log2(x float64) float64 {
	if x <= 2 {
		return 1
	}
	return math.Log2(x)
}

// Bounds below instantiate the Table 1 rows with constant 1. The benchmark
// harness reports measured ModelBits divided by these, so a flat ratio
// across a parameter sweep demonstrates matching growth.

// MaxUpperBits is row 2's upper bound: ε⁻¹·log ε⁻¹ + log n + log log m.
func MaxUpperBits(eps float64, n, m uint64) float64 {
	return Log2(1/eps)/eps + Log2(float64(n)) + Log2(Log2(float64(m)))
}

// MinUpperBits is row 3's upper bound: ε⁻¹·log log ε⁻¹ + log log m.
func MinUpperBits(eps float64, m uint64) float64 {
	return Log2(Log2(1/eps))/eps + Log2(Log2(float64(m)))
}

// BordaUpperBits is row 4's upper bound: n(log ε⁻¹ + log n) + log log m.
func BordaUpperBits(eps float64, n, m uint64) float64 {
	fn := float64(n)
	return fn*(Log2(1/eps)+Log2(fn)) + Log2(Log2(float64(m)))
}

// MaximinUpperBits is row 5's upper bound: n·ε⁻²·log² n + log log m.
func MaximinUpperBits(eps float64, n, m uint64) float64 {
	fn := float64(n)
	l := Log2(fn)
	return fn*l*l/(eps*eps) + Log2(Log2(float64(m)))
}
