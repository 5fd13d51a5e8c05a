package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Config carries the problem parameters common to all solvers in this
// package.
type Config struct {
	// Eps is the additive error parameter ε ∈ (0, Phi).
	Eps float64
	// Phi is the heaviness threshold ϕ ∈ (ε, 1]. Unused by Maximum.
	Phi float64
	// Delta is the allowed failure probability δ ∈ (0, 1).
	Delta float64
	// M is the stream length, which Theorems 1–6 assume is known in
	// advance (package unknown removes the assumption).
	M uint64
	// N is the universe size; items are ids in [0, N).
	N uint64
	// Tuning selects the constants; the zero value means DefaultTuning.
	Tuning Tuning
}

// validate checks the ranges shared by all solvers, refusing NaN in
// each. needPhi is false for Maximum, which has no ϕ.
func (c *Config) validate(needPhi bool) error {
	if !(c.Eps > 0 && c.Eps < 1) {
		return fmt.Errorf("core: eps = %v out of (0,1)", c.Eps)
	}
	if needPhi {
		if !(c.Phi > c.Eps && c.Phi <= 1) {
			return fmt.Errorf("core: phi = %v out of (eps, 1]", c.Phi)
		}
	}
	if !(c.Delta > 0 && c.Delta < 1) {
		return fmt.Errorf("core: delta = %v out of (0,1)", c.Delta)
	}
	if c.M == 0 {
		return errors.New("core: stream length M must be known and positive")
	}
	if c.N == 0 {
		return errors.New("core: universe size N must be positive")
	}
	if c.Tuning == (Tuning{}) {
		c.Tuning = DefaultTuning
	}
	return nil
}

// Tuning holds the numerical constants of Algorithms 1 and 2. See the
// package comment; DESIGN.md §6 explains each derivation.
type Tuning struct {
	// A1SampleConst scales Algorithm 1's sample size:
	// ℓ = A1SampleConst · ln(6/δ) / ε². Paper: 6 (line 2 of Algorithm 1).
	A1SampleConst float64
	// A1TableFactor scales Algorithm 1's Misra-Gries table: length
	// A1TableFactor/ε. Paper: 1; larger values trade space for a cleaner
	// decision boundary (we default to 4 so the table undercount is ≤ εs/4).
	A1TableFactor float64
	// A1HashRangeConst scales the id-hashing range: ⌈A1HashRangeConst·ℓ²/δ⌉
	// per Lemma 2, so sampled ids collide with probability ≤ δ/A1HashRangeConst·….
	// Paper: 4 (line 3). The range costs nothing — it is never allocated.
	A1HashRangeConst float64
	// A2SampleConst scales Algorithm 2's sample size: ℓ = A2SampleConst/ε².
	// Paper: 10⁵ (line 2).
	A2SampleConst float64
	// A2BucketFactor scales the accelerated-counter bucket count:
	// u = A2BucketFactor/ε buckets per repetition. Paper: 100 (line 4).
	A2BucketFactor float64
	// A2RepFactor scales the number of independent repetitions:
	// R = A2RepFactor·log₂(12/ϕ), rounded up to odd. Paper: 200 (line 4).
	A2RepFactor float64
	// T2Rate is the subsampling rate of the running estimate table T2.
	// Paper: ε (line 14); kept as a multiplier on ε (so 1 means the paper's
	// choice).
	T2Rate float64
}

// PaperTuning is the literal constant set from the pseudocode of
// Algorithms 1 and 2. It is validated by the test suite but needs streams
// of length ≫ 10⁵/ε² to engage sampling at all.
var PaperTuning = Tuning{
	A1SampleConst:    6,
	A1TableFactor:    1,
	A1HashRangeConst: 4,
	A2SampleConst:    1e5,
	A2BucketFactor:   100,
	A2RepFactor:      200,
	T2Rate:           1,
}

// DefaultTuning is the practical constant set used by the benchmarks; the
// test suite checks the (ε,ϕ) guarantees hold under it.
var DefaultTuning = Tuning{
	A1SampleConst:    8,
	A1TableFactor:    4,
	A1HashRangeConst: 121, // (11ℓ)²/δ per Lemma 2 at the Chernoff cap s ≤ 11ℓ
	A2SampleConst:    128,
	A2BucketFactor:   64,
	A2RepFactor:      2,
	T2Rate:           1,
}

// ItemEstimate pairs a reported item with its estimated absolute frequency
// over the full stream.
type ItemEstimate struct {
	// Item is the reported universe element.
	Item uint64
	// F is the frequency estimate f̃ with |f̃ − f| ≤ ε·m on success.
	F float64
}

// SortEstimates orders reports by decreasing estimate, ties by ascending
// id — the deterministic output order every Report in this repository
// uses. Exported so the shard layer can merge per-shard reports into the
// same order.
func SortEstimates(out []ItemEstimate) { sortEstimates(out) }

// sortEstimates orders reports by decreasing estimate, ties by ascending
// id, for deterministic output.
func sortEstimates(out []ItemEstimate) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].F != out[j].F {
			return out[i].F > out[j].F
		}
		return out[i].Item < out[j].Item
	})
}

// sampleSizeA1 returns Algorithm 1's target sample size ℓ.
func (t Tuning) sampleSizeA1(eps, delta float64) float64 {
	return t.A1SampleConst * math.Log(6/delta) / (eps * eps)
}

// sampleSizeA2 returns Algorithm 2's target sample size ℓ.
func (t Tuning) sampleSizeA2(eps float64) float64 {
	return t.A2SampleConst / (eps * eps)
}
