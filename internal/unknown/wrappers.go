package unknown

import (
	"repro/internal/core"
	"repro/internal/minimum"
	"repro/internal/rng"
	"repro/internal/voting"
)

// ListHH is the unknown-length (ε,ϕ)-List heavy hitters solver of
// Theorem 7, built on Algorithm 1 instances with the sample-size constant
// boosted by 1/ε.
type ListHH struct {
	sched *scheduler[uint64, *core.SimpleList]
}

// NewListHH returns a Theorem 7 instance. No stream length is required.
func NewListHH(src *rng.Source, eps, phi, delta float64, n uint64) (*ListHH, error) {
	spawn := func(guess uint64) (*core.SimpleList, error) {
		tun := core.DefaultTuning
		tun.A1SampleConst *= 1 / eps // Theorem 7's ℓ = Θ(log(1/δ)/ε³)
		return core.NewSimpleList(src.Split(), core.Config{
			Eps: eps, Phi: phi, Delta: delta, M: guess, N: n, Tuning: tun,
		})
	}
	sched, err := newScheduler[uint64](src, eps, spawn)
	if err != nil {
		return nil, err
	}
	return &ListHH{sched: sched}, nil
}

// Insert processes one stream item.
func (l *ListHH) Insert(x uint64) { l.sched.Insert(x) }

// InsertBatch processes items in order, one Insert each: the staggered
// instances are spawned and retired at item granularity, so there is no
// run to skip in bulk.
func (l *ListHH) InsertBatch(items []uint64) {
	for _, x := range items {
		l.sched.Insert(x)
	}
}

// Report returns the heavy hitters with estimates scaled to the stream
// seen by the reporting instance (its missed prefix is ≤ an ε² fraction of
// the stream, inside the ε·m budget).
func (l *ListHH) Report() []core.ItemEstimate { return l.sched.Current().Report() }

// Len returns the number of items consumed.
func (l *ListHH) Len() uint64 { return l.sched.Offered() }

// ModelBits charges the ≤ 2 live instances plus the Morris counter.
func (l *ListHH) ModelBits() int64 { return l.sched.ModelBits() }

// Maximum is the unknown-length ε-Maximum solver of Theorem 7.
type Maximum struct {
	sched *scheduler[uint64, *core.Maximum]
}

// NewMaximum returns an unknown-length ε-Maximum instance.
func NewMaximum(src *rng.Source, eps, delta float64, n uint64) (*Maximum, error) {
	spawn := func(guess uint64) (*core.Maximum, error) {
		tun := core.DefaultTuning
		tun.A1SampleConst *= 1 / eps
		return core.NewMaximum(src.Split(), core.Config{
			Eps: eps, Delta: delta, M: guess, N: n, Tuning: tun,
		})
	}
	sched, err := newScheduler[uint64](src, eps, spawn)
	if err != nil {
		return nil, err
	}
	return &Maximum{sched: sched}, nil
}

// Insert processes one stream item.
func (m *Maximum) Insert(x uint64) { m.sched.Insert(x) }

// Report returns the approximate maximum-frequency item and its estimate.
func (m *Maximum) Report() (item uint64, freq float64, ok bool) {
	return m.sched.Current().Report()
}

// Len returns the number of items consumed.
func (m *Maximum) Len() uint64 { return m.sched.Offered() }

// ModelBits charges the ≤ 2 live instances plus the Morris counter.
func (m *Maximum) ModelBits() int64 { return m.sched.ModelBits() }

// Minimum is the unknown-length ε-Minimum solver of Theorem 8.
type Minimum struct {
	sched *scheduler[uint64, *minimum.Solver]
}

// NewMinimum returns an unknown-length ε-Minimum instance over universe
// [0, n).
func NewMinimum(src *rng.Source, eps, delta float64, n uint64) (*Minimum, error) {
	spawn := func(guess uint64) (*minimum.Solver, error) {
		tun := minimum.DefaultTuning
		tun.L1Const *= 1 / eps
		tun.L2Const *= 1 / eps
		tun.L3Const *= 1 / eps
		return minimum.New(src.Split(), minimum.Config{
			Eps: eps, Delta: delta, M: guess, N: n, Tuning: tun,
		})
	}
	sched, err := newScheduler[uint64](src, eps, spawn)
	if err != nil {
		return nil, err
	}
	return &Minimum{sched: sched}, nil
}

// Insert processes one stream item.
func (m *Minimum) Insert(x uint64) { m.sched.Insert(x) }

// Report returns an approximately minimum-frequency item.
func (m *Minimum) Report() minimum.Result { return m.sched.Current().Report() }

// Len returns the number of items consumed.
func (m *Minimum) Len() uint64 { return m.sched.Offered() }

// ModelBits charges the ≤ 2 live instances plus the Morris counter.
func (m *Minimum) ModelBits() int64 { return m.sched.ModelBits() }

// Borda is the unknown-length ε-Borda solver of Theorem 8.
type Borda struct {
	sched *scheduler[voting.Ranking, *voting.BordaSketch]
}

// NewBorda returns an unknown-length ε-Borda instance over n candidates.
func NewBorda(src *rng.Source, n int, eps, delta float64) (*Borda, error) {
	spawn := func(guess uint64) (*voting.BordaSketch, error) {
		return voting.NewBordaSketch(src.Split(), voting.BordaConfig{
			N: n, Eps: eps, Delta: delta, M: guess,
			SampleConst: 6 / eps, // Theorem 8's 1/ε boost
		})
	}
	sched, err := newScheduler[voting.Ranking](src, eps, spawn)
	if err != nil {
		return nil, err
	}
	return &Borda{sched: sched}, nil
}

// Insert processes one vote.
func (b *Borda) Insert(r voting.Ranking) { b.sched.Insert(r) }

// Scores returns estimated Borda scores (±ε·m·n whp).
func (b *Borda) Scores() []float64 { return b.sched.Current().Scores() }

// Max returns an ε-Borda winner.
func (b *Borda) Max() (int, float64) { return b.sched.Current().Max() }

// Len returns the number of votes consumed.
func (b *Borda) Len() uint64 { return b.sched.Offered() }

// ModelBits charges the ≤ 2 live instances plus the Morris counter.
func (b *Borda) ModelBits() int64 { return b.sched.ModelBits() }

// Maximin is the unknown-length ε-maximin solver of Theorem 8.
type Maximin struct {
	sched *scheduler[voting.Ranking, *voting.MaximinSketch]
}

// NewMaximin returns an unknown-length ε-maximin instance over n
// candidates.
func NewMaximin(src *rng.Source, n int, eps, delta float64) (*Maximin, error) {
	spawn := func(guess uint64) (*voting.MaximinSketch, error) {
		return voting.NewMaximinSketch(src.Split(), voting.MaximinConfig{
			N: n, Eps: eps, Delta: delta, M: guess,
			SampleConst: 8 / eps,
		})
	}
	sched, err := newScheduler[voting.Ranking](src, eps, spawn)
	if err != nil {
		return nil, err
	}
	return &Maximin{sched: sched}, nil
}

// Insert processes one vote.
func (m *Maximin) Insert(r voting.Ranking) { m.sched.Insert(r) }

// Scores returns estimated maximin scores (±ε·m whp).
func (m *Maximin) Scores() []float64 { return m.sched.Current().Scores() }

// Max returns an ε-maximin winner.
func (m *Maximin) Max() (int, float64) { return m.sched.Current().Max() }

// Len returns the number of votes consumed.
func (m *Maximin) Len() uint64 { return m.sched.Offered() }

// ModelBits charges the ≤ 2 live instances plus the Morris counter.
func (m *Maximin) ModelBits() int64 { return m.sched.ModelBits() }
