package voting

import (
	"fmt"
	"math"

	"repro/internal/compact"
	"repro/internal/rng"
	"repro/internal/sample"
)

// MaximinConfig carries the (ε,ϕ)-List maximin / ε-maximin parameters.
type MaximinConfig struct {
	// N is the number of candidates.
	N int
	// Eps is the additive error, measured in units of m (Definition 9).
	Eps float64
	// Delta is the allowed failure probability.
	Delta float64
	// M is the (known) number of votes in the stream.
	M uint64
	// SampleConst scales ℓ = SampleConst·ε⁻²·ln(6n/δ); 0 means the
	// paper's 8.
	SampleConst float64
	// Pairwise selects the ablation variant that maintains an n×n
	// pairwise matrix incrementally instead of storing the sampled votes
	// (more update work and Θ(n²·log ℓ) bits, but O(n²) reporting and no
	// vote storage). The paper's accounting stores the votes; see A3 in
	// DESIGN.md.
	Pairwise bool
}

// MaximinSketch solves ε-maximin and (ε,ϕ)-List maximin (Theorem 6):
// sample ≈ ℓ = Θ(ε⁻²·log(n/δ)) votes; the sampled pairwise margins
// D_S(x,y) then approximate every true margin within ε·m/2, so maximin
// scores are preserved within ε·m. Default storage is the sampled votes
// themselves at n·⌈log n⌉ bits each — Theorem 6's
// O(n·ε⁻²·log n·(log n + log δ⁻¹)) bits.
type MaximinSketch struct {
	cfg     MaximinConfig
	sampler *sample.Skip
	// votes is the stored sample of the default variant: the sampled
	// rankings back to back, N candidate ids each.
	votes   []uint32
	pair    [][]uint64 // pairwise matrix (ablation variant)
	s       uint64
	offered uint64
}

// NewMaximinSketch returns a Theorem 6 instance.
func NewMaximinSketch(src *rng.Source, cfg MaximinConfig) (*MaximinSketch, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("voting: N = %d must be positive", cfg.N)
	}
	if cfg.Eps <= 0 || cfg.Eps >= 1 {
		return nil, fmt.Errorf("voting: eps = %v out of (0,1)", cfg.Eps)
	}
	if cfg.Delta <= 0 || cfg.Delta >= 1 {
		return nil, fmt.Errorf("voting: delta = %v out of (0,1)", cfg.Delta)
	}
	if cfg.M == 0 {
		return nil, fmt.Errorf("voting: M must be positive")
	}
	if cfg.SampleConst == 0 {
		cfg.SampleConst = 8
	}
	ell := cfg.SampleConst * math.Log(6*float64(cfg.N)/cfg.Delta) / (cfg.Eps * cfg.Eps)
	p := math.Min(1, 6*ell/float64(cfg.M))
	m := &MaximinSketch{
		cfg:     cfg,
		sampler: sample.NewSkip(src.Split(), p),
	}
	if cfg.Pairwise {
		m.pair = make([][]uint64, cfg.N)
		for i := range m.pair {
			m.pair[i] = make([]uint64, cfg.N)
		}
	}
	return m, nil
}

// Insert processes one vote. The vote is copied if sampled; callers may
// reuse the slice.
func (m *MaximinSketch) Insert(r Ranking) {
	if len(r) != m.cfg.N {
		panic("voting: vote arity mismatch")
	}
	m.offered++
	if !m.sampler.Next() {
		return
	}
	m.s++
	if m.cfg.Pairwise {
		for pos, c := range r {
			for _, d := range r[pos+1:] {
				m.pair[c][d]++
			}
		}
		return
	}
	m.votes = append(m.votes, r...)
}

// margins returns D_S over the sample.
func (m *MaximinSketch) margins() [][]uint64 {
	if m.cfg.Pairwise {
		return m.pair
	}
	pair := make([][]uint64, m.cfg.N)
	for i := range pair {
		pair[i] = make([]uint64, m.cfg.N)
	}
	for off := 0; off < len(m.votes); off += m.cfg.N {
		r := m.votes[off : off+m.cfg.N]
		for pos, c := range r {
			for _, d := range r[pos+1:] {
				pair[c][d]++
			}
		}
	}
	return pair
}

// Scores returns every candidate's estimated maximin score, scaled to the
// full stream. With probability 1−δ each is within ε·m of the truth.
// Reporting costs O(ℓ·n²) for the vote-storing variant, O(n²) for the
// pairwise variant.
func (m *MaximinSketch) Scores() []float64 {
	out := make([]float64, m.cfg.N)
	if m.s == 0 {
		return out
	}
	pair := m.margins()
	scale := float64(m.offered) / float64(m.s)
	for x := 0; x < m.cfg.N; x++ {
		if m.cfg.N == 1 {
			out[x] = float64(m.offered)
			continue
		}
		min := ^uint64(0)
		for y := 0; y < m.cfg.N; y++ {
			if y != x && pair[x][y] < min {
				min = pair[x][y]
			}
		}
		out[x] = float64(min) * scale
	}
	return out
}

// Max returns an ε-maximin winner: a candidate whose maximin score is
// within ε·m of the maximum, plus the estimate of its score.
func (m *MaximinSketch) Max() (candidate int, score float64) {
	sc := m.Scores()
	bi, bv := 0, sc[0]
	for i, v := range sc[1:] {
		if v > bv {
			bi, bv = i+1, v
		}
	}
	return bi, bv
}

// List solves (ε,ϕ)-List maximin (Definition 8): every candidate with
// maximin score ≥ ϕ·m is returned, none with score ≤ (ϕ−ε)·m, scores
// within ε·m.
func (m *MaximinSketch) List(phi float64) []ScoredCandidate {
	sc := m.Scores()
	thresh := (phi - m.cfg.Eps/2) * float64(m.offered)
	var out []ScoredCandidate
	for i, v := range sc {
		if v >= thresh {
			out = append(out, ScoredCandidate{Candidate: i, Score: v})
		}
	}
	sortScored(out)
	return out
}

// SampleSize returns the number of sampled votes.
func (m *MaximinSketch) SampleSize() uint64 { return m.s }

// Len returns the number of votes consumed.
func (m *MaximinSketch) Len() uint64 { return m.offered }

// ModelBits charges, for the default variant, each stored vote at
// n·⌈log₂ n⌉ bits (the paper's accounting) plus the sampler; for the
// pairwise ablation, the n² counters at variable-length cost.
func (m *MaximinSketch) ModelBits() int64 {
	if m.cfg.Pairwise {
		var bits int64
		for _, row := range m.pair {
			for _, v := range row {
				bits += compact.CounterBits(v)
			}
		}
		return bits + samplerBits(m.offered)
	}
	return int64(len(m.votes))*compact.IDBits(uint64(m.cfg.N)) + samplerBits(m.offered)
}
