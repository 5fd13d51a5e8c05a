// Package unknown removes the known-stream-length assumption from the
// solvers, per §3.5 of the paper (Theorems 7 and 8).
//
// The technique: guess the stream length in geometric steps. Writing
// r = 1/ε, an instance spawned with guessed upper length r^(k+2) is
// accurate for true lengths in [r^(k+1), r^(k+2)] — its sample-size
// constant is boosted by a factor r so that even at the lower end of its
// validity window it holds Θ(ε⁻²) samples. A Morris approximate counter
// (O(log log m) bits, factor-4 accurate at every power-of-two position
// whp) watches the stream position; each time it crosses a milestone r^k
// the oldest instance is discarded and a fresh one spawned, so at most two
// instances run at any time. A freshly spawned instance misses the stream
// prefix, but the prefix is at most an ε² fraction of any length at which
// that instance is consulted, which the error budget absorbs. Reports
// always come from the older (fully warmed) instance.
//
// The paper notes the technique applies to Algorithm 1 and the sampling
// solvers, not Algorithm 2; the ListHH wrapper here is built on
// core.SimpleList accordingly.
package unknown

import (
	"fmt"
	"math"

	"repro/internal/morris"
	"repro/internal/rng"
)

// morrisEnsemble is the number of averaged Morris counters used for
// milestone detection; 32 gives ≈ ±12% relative accuracy, far inside the
// factor-4 budget of Theorem 7's analysis.
const morrisEnsemble = 32

// milestoneSafety triggers milestones when the Morris estimate reaches
// half the milestone, compensating the counter's downward noise (spawning
// early is benign: it only shortens the missed prefix).
const milestoneSafety = 0.5

// maxGuess caps guessed lengths to keep arithmetic in range.
const maxGuess = uint64(1) << 62

// instance is the method set the scheduler drives on the solvers it
// staggers.
type instance[T any] interface {
	Insert(x T)
	ModelBits() int64
}

// scheduler runs the staggered-instance lifecycle for any solver type I
// fed items of type T.
type scheduler[T any, I instance[T]] struct {
	r        float64
	spawn    func(guess uint64) (I, error)
	counter  *morris.Ensemble
	older    I
	newer    I
	haveNew  bool
	mileIdx  int     // next milestone is r^mileIdx
	nextMile float64 // r^mileIdx, cached
	offered  uint64  // diagnostics only; not part of the space accounting
}

func newScheduler[T any, I instance[T]](
	src *rng.Source, eps float64, spawn func(guess uint64) (I, error),
) (*scheduler[T, I], error) {
	if eps <= 0 || eps > 0.5 {
		return nil, fmt.Errorf("unknown: eps = %v out of (0, 0.5]", eps)
	}
	r := 1 / eps
	s := &scheduler[T, I]{
		r:       r,
		spawn:   spawn,
		counter: morris.NewEnsemble(src.Split(), morrisEnsemble),
		mileIdx: 2,
	}
	s.nextMile = math.Pow(r, float64(s.mileIdx))
	// The initial instance I₁ guesses upper length r³ (valid for true
	// lengths up to r³; for shorter streams its sampling probability is 1
	// and it is simply exact).
	first, err := spawn(guessFor(r, 3))
	if err != nil {
		return nil, err
	}
	s.older = first
	return s, nil
}

// guessFor returns min(r^k, maxGuess) as a uint64 guess.
func guessFor(r float64, k int) uint64 {
	g := math.Pow(r, float64(k))
	if g >= float64(maxGuess) {
		return maxGuess
	}
	if g < 1 {
		return 1
	}
	return uint64(g)
}

// Insert feeds one item to the live instances and advances the milestone
// machinery.
func (s *scheduler[T, I]) Insert(x T) {
	s.offered++
	s.counter.Inc()
	s.older.Insert(x)
	if s.haveNew {
		s.newer.Insert(x)
	}
	if float64(s.counter.Estimate()) >= milestoneSafety*s.nextMile {
		s.advance()
	}
}

// advance crosses one milestone: spawn the next instance and retire the
// oldest so at most two remain.
func (s *scheduler[T, I]) advance() {
	next, err := s.spawn(guessFor(s.r, s.mileIdx+2))
	if err != nil {
		// Spawning can only fail on invalid configuration, which the
		// constructor already validated; treat failure as a bug.
		panic(fmt.Sprintf("unknown: respawn failed: %v", err))
	}
	if s.haveNew {
		s.older = s.newer
	}
	s.newer = next
	s.haveNew = true
	s.mileIdx++
	s.nextMile = math.Pow(s.r, float64(s.mileIdx))
}

// Current returns the instance reports should come from: the older (fully
// warmed) of the live instances.
func (s *scheduler[T, I]) Current() I { return s.older }

// Offered returns the number of items consumed (diagnostics).
func (s *scheduler[T, I]) Offered() uint64 { return s.offered }

// ModelBits charges the live instances plus the Morris counter — the
// "+O(log log m)" of Theorems 7 and 8.
func (s *scheduler[T, I]) ModelBits() int64 {
	b := s.counter.ModelBits() + s.older.ModelBits()
	if s.haveNew {
		b += s.newer.ModelBits()
	}
	return b
}
