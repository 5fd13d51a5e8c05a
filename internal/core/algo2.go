package core

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/compact"
	"repro/internal/hash"
	"repro/internal/mg"
	"repro/internal/rng"
	"repro/internal/sample"
)

// minEpochBase is the smallest T2 value at which accelerated counting may
// begin. Below it the running estimate f̄ = T2/ε is too noisy to pick an
// epoch (the paper's Claim 1 needs f_i ≳ 100/ε, i.e. T2 ≳ 100 under its
// constants; 16 keeps the relative noise of f̄ at 25% under ours).
const minEpochBase = 16

// MaxGridCells bounds the Algorithm 2 grid cells one solver holds: R·u
// for a lone engine, summed over every engine of a sharded or windowed
// one. That is the T2 grid; the merge credit is at most as large again.
// 2²⁸ one-byte cells admit ε down to 10⁻⁵ at any ϕ ≥ 10⁻³ under
// DefaultTuning for a lone engine. The grid is paged, so an engine
// holds memory for the cells written, but its first write allocates a
// page table of R·u/8 bytes, 32 MiB at the bound. A checkpoint writes
// an all-zero row in a few bytes, so its length bounds nothing:
// UnmarshalBinary refuses a frame whose header claims more, and a
// container decoder sums FrameGridCells over its frames before decoding
// any. NewOptimal and CheckGrid apply the same bound, so every solver
// they admit restores.
const MaxGridCells = 1 << 28

// Optimal is Algorithm 2 of the paper: the space-optimal (ε,ϕ)-List heavy
// hitters solver (Theorem 2).
//
// Candidates come from a Misra-Gries table T1 with Θ(1/ϕ) counters over
// raw ids — every ϕ-heavy item of the sampled stream survives there.
// Frequencies are then estimated not with Θ(log ℓ)-bit exact counters but
// with accelerated counters: each of R = Θ(log ϕ⁻¹) repetitions hashes ids
// into u = Θ(1/ε) buckets; a subsampled table T2 tracks a factor-4
// estimate f̄ of each bucket's count; and the bucket's arrivals are
// recorded in T3 with probability p_t = ε·2^t that doubles as f̄ crosses
// epoch boundaries B·2^{t/2}. Each T3 increment, scaled back by 1/p_t,
// contributes unbiasedly to the estimate with variance O(ε⁻²) total —
// O(ε⁻¹) additive error per repetition, driven to failure probability
// O(ϕ) by the median over repetitions.
//
// The per-sample work hashes all R buckets in one batch before the
// coin/T2/epoch/T3 loop, T1 is a flat open-addressing table, T2 and the
// merge credit hold one byte per cell in 64-cell pages over a shared
// zero page, with an escape table for the rare large cells, and T3
// holds only its non-empty rows. None of that layout
// changes a random draw or a table value, so checkpoints, reports and
// ModelBits do not depend on it (DESIGN.md §2).
type Optimal struct {
	cfg     Config
	sampler *sample.Skip
	t1      *mg.Summary
	hashes  []hash.Func
	t2      cellGrid // rep·u + bucket → subsampled running count
	// t3 maps rep·u + bucket to that bucket's accelerated counters, one
	// per epoch. Only non-empty rows are present: most buckets never
	// reach epoch 0.
	t3      map[uint64][]uint32
	buckets []uint64 // the current sample's bucket per rep, reused
	u       uint64   // buckets per repetition
	reps    int
	epsK    uint    // ε rounded down to 2^−epsK (Lemma 1 coin)
	epsEff  float64 // 2^−epsK
	base    float64 // epoch base B
	// epochThresh[t] is the smallest T2 value whose epoch is ≥ t, and
	// epochStart[b] the epoch of the smallest T2 value of bit length b
	// (−1 below the base). Together they answer epoch() with one table
	// lookup and a ≤2-step scan instead of a math.Log2 call per
	// repetition per sample — the single hottest arithmetic on the
	// sampled path. Derived from base; rebuilt on restore.
	epochThresh []uint32
	epochStart  [33]int8
	epochByte   [256]int8 // epoch(v) for every narrow T2 value v
	src         *rng.Source
	s           uint64
	offered     uint64
	maxEpoch    int

	// pre is the merge credit for pre-epoch arrivals, per [rep][bucket]
	// in T2 units: before T2 crosses the epoch base B, arrivals are
	// recorded nowhere but T2, and the estimator's min(T2, B)/ε term
	// covers that single blind window. Merging K instances unions K blind
	// windows, of which min(T2₁+T2₂, B) covers only one — the surplus
	// min(T2₁,B) + min(T2₂,B) − min(T2₁+T2₂,B) accumulates here so the
	// merged estimate stays unbiased (DESIGN.md §7). Its pages are
	// allocated on first credit: an instance that never merged holds
	// none.
	pre cellGrid
}

// NewOptimal returns an Algorithm 2 instance for cfg.
func NewOptimal(src *rng.Source, cfg Config) (*Optimal, error) {
	if err := cfg.validate(true); err != nil {
		return nil, err
	}
	if err := CheckGrid(cfg, 1); err != nil {
		return nil, err
	}
	t := cfg.Tuning
	ell := t.sampleSizeA2(cfg.Eps)
	p := math.Min(1, ell/float64(cfg.M))
	reps, u := gridShape(cfg)
	epsEff, epsK := sample.PowerOfTwoFloor(cfg.Eps * t.T2Rate)
	base := math.Max(minEpochBase, t.A2SampleConst/t.A2BucketFactor)
	k := int(math.Ceil(2 / cfg.Phi))
	o := &Optimal{
		cfg:     cfg,
		sampler: sample.NewSkip(src.Split(), p),
		t1:      mg.New(k, cfg.N),
		hashes:  make([]hash.Func, reps),
		t2:      newCellGrid(reps, u),
		t3:      make(map[uint64][]uint32),
		buckets: make([]uint64, reps),
		u:       u,
		reps:    reps,
		epsK:    epsK,
		epsEff:  epsEff,
		base:    base,
		src:     src.Split(),
		pre:     newCellGrid(reps, u),
	}
	for j := 0; j < reps; j++ {
		o.hashes[j] = hash.NewFunc(src, u)
	}
	o.initEpochs()
	return o, nil
}

// gridShape is Algorithm 2's grid for a validated cfg: reps
// repetitions of u buckets each.
func gridShape(cfg Config) (reps int, u uint64) {
	t := cfg.Tuning
	u = uint64(math.Ceil(t.A2BucketFactor / cfg.Eps))
	reps = int(math.Ceil(t.A2RepFactor * math.Log2(12/cfg.Phi)))
	if reps < 3 {
		reps = 3
	}
	if reps%2 == 0 {
		reps++
	}
	return reps, u
}

// CheckGrid errors when n Algorithm 2 engines built for cfg would hold
// more than MaxGridCells grid cells between them; NewOptimal checks
// n = 1. An invalid cfg passes, for NewOptimal to report.
func CheckGrid(cfg Config, n uint64) error {
	if cfg.validate(true) != nil || n == 0 {
		return nil
	}
	reps, u := gridShape(cfg)
	if u <= MaxGridCells/uint64(reps)/n {
		return nil
	}
	if n == 1 {
		return fmt.Errorf("core: eps = %v and phi = %v need %d×%d Algorithm 2 cells, above %d",
			cfg.Eps, cfg.Phi, reps, u, MaxGridCells)
	}
	return fmt.Errorf("core: eps = %v and phi = %v need %d engines of %d×%d Algorithm 2 cells, above %d in total",
		cfg.Eps, cfg.Phi, n, reps, u, MaxGridCells)
}

// refEpoch is the defining formula t = ⌊2·log₂(T2/B)⌋ (the paper's
// ⌊log(10⁻⁶·T2²)⌋ with B generalized from 1000), or −1 below the base.
// It is the reference the precomputed tables are built against — and
// must keep matching bit for bit, because epoch boundaries are part of
// the serialized-state semantics (merge compares bases, restored T3
// rows are indexed by epoch).
func refEpoch(t2 uint32, base float64) int {
	if float64(t2) < base {
		return -1
	}
	return int(math.Floor(2 * math.Log2(float64(t2)/base)))
}

// initEpochs builds the epoch lookup tables from base: epochThresh[t]
// is found by float candidate B·2^{t/2} then fixed up against refEpoch
// so the boundaries match the formula exactly, and epochStart[b] is the
// epoch at 2^{b−1}, the entry point for the per-bit-length scan.
func (o *Optimal) initEpochs() {
	o.epochThresh = o.epochThresh[:0]
	for t := 0; ; t++ {
		v := math.Ceil(o.base * math.Exp2(float64(t)/2))
		if !(v <= math.MaxUint32) {
			break
		}
		c := uint32(v)
		for c > 1 && refEpoch(c-1, o.base) >= t {
			c--
		}
		for refEpoch(c, o.base) < t {
			if c == math.MaxUint32 {
				c = 0 // candidate rounded below a threshold past the range
				break
			}
			c++
		}
		if c == 0 {
			break
		}
		o.epochThresh = append(o.epochThresh, c)
	}
	for b := range o.epochStart {
		o.epochStart[b] = -1
		if b == 0 {
			continue
		}
		v := uint32(1) << (b - 1)
		for t, th := range o.epochThresh {
			if th <= v {
				o.epochStart[b] = int8(t)
			} else {
				break
			}
		}
	}
	for v := range o.epochByte {
		o.epochByte[v] = int8(o.epoch(uint32(v)))
	}
}

// epoch returns refEpoch(t2, base) via the precomputed tables: start at
// the epoch of t2's bit-length floor, then advance past at most two
// thresholds (a doubling of T2 raises the epoch by exactly 2).
func (o *Optimal) epoch(t2 uint32) int {
	t := int(o.epochStart[bits.Len32(t2)])
	th := o.epochThresh
	for t+1 < len(th) && t2 >= th[t+1] {
		t++
	}
	return t
}

// Insert processes one stream item in O(1) amortized time: one sampler
// decrement on the non-sampled path, and at most one sampled item per
// call, which amortizes because samples are Θ(ε²)-rare (§3.1). That one
// sample costs O(reps) = O(log ϕ⁻¹) counter steps, plus a sweep of the
// whole O(1/ϕ) table when its Misra-Gries update decrements.
func (o *Optimal) Insert(x uint64) {
	if o.advance(1) == 0 {
		o.process(x)
	}
}

// InsertBatch processes items in order, as one Insert per item would,
// with O(1) work per sampled item rather than per item.
func (o *Optimal) InsertBatch(items []uint64) { insertBatch(o, items) }

// advance implements sampledEngine's admission step.
func (o *Optimal) advance(n int) int {
	k := o.sampler.Advance(n)
	o.offered += uint64(min(k+1, n)) // through the sample, or all n
	return k
}

// process performs the per-sample work: the T1 Misra-Gries update and
// one accelerated-counter step per repetition, after hashing x into all
// R buckets at once. Only an escaped T2 cell reads the escape table, and
// only a coin landing on an unwritten page allocates.
func (o *Optimal) process(x uint64) {
	o.s++
	o.t1.Insert(x)
	hash.HashAll(o.hashes, x, o.buckets)
	mask := (uint64(1) << o.epsK) - 1
	for j, i := range o.buckets {
		key := uint64(j)*o.u + i
		page := o.t2.page(key)
		c := page[key&pageMask]
		coin := o.src.Uint64()&mask == 0 // probability ε (power-of-two)
		var t int
		if c < escapeByte-1 { // narrow before and after the coin
			if coin {
				c++
				if page == &zeroPage {
					page = o.t2.own(key)
				}
				page[key&pageMask] = c
			}
			t = int(o.epochByte[c])
		} else {
			v := uint32(c)
			if c == escapeByte {
				v = o.t2.esc.get(key)
			}
			if coin {
				v++
				o.t2.set(key, v)
			}
			t = o.epoch(v)
		}
		if t < 0 {
			continue
		}
		// p_t = min(ε·2^t, 1); since ε is a power of two, so is p_t, and
		// the Lemma 1 coin applies directly.
		shift := int(o.epsK) - t
		ok := true
		if shift > 0 {
			ok = o.src.Uint64()&((uint64(1)<<uint(shift))-1) == 0
		}
		if !ok {
			continue
		}
		row := o.t3[key]
		if len(row) <= t {
			row = append(row, make([]uint32, t+1-len(row))...)
			o.t3[key] = row
		}
		row[t]++
		if t > o.maxEpoch {
			o.maxEpoch = t
		}
	}
}

// estimate returns fˆ_j(x) for repetition j: Σ_t T3[i,j,t]/p_t plus a
// correction min(T2, B)/ε for the arrivals that predate epoch 0 (the
// paper's estimator leaves those unrecorded and simply charges the
// resulting ≤ O(ε⁻¹) undercount to the error budget; the correction is an
// unbiased estimate of that prefix — T2 counts it at rate ε until it
// saturates at B — and makes the estimator usable on short streams too).
func (o *Optimal) estimate(j int, x uint64) float64 {
	key := uint64(j)*o.u + o.hashes[j].Hash(x)
	var f float64
	for t, c := range o.t3[key] {
		if c == 0 {
			continue
		}
		p := math.Min(o.epsEff*math.Ldexp(1, t), 1)
		f += float64(c) / p
	}
	pre := math.Min(float64(o.t2.at(key)), o.base) + float64(o.pre.at(key))
	return f + pre/o.epsEff
}

// Report returns every T1 candidate whose median accelerated-counter
// estimate clears the (ϕ − ε/2)·s threshold, scaled to the full stream.
// With constant probability (driven by the tuning) the output contains
// every item with f ≥ ϕ·m, no item with f ≤ (ϕ−ε)·m, and estimates are
// within ε·m. Reporting time is linear in the candidate count O(1/ϕ).
func (o *Optimal) Report() []ItemEstimate {
	if o.s == 0 {
		return nil
	}
	scale := float64(o.offered) / float64(o.s)
	thresh := (o.cfg.Phi - o.cfg.Eps/2) * float64(o.s)
	ests := make([]float64, o.reps)
	var out []ItemEstimate
	for _, x := range o.t1.Candidates() {
		for j := 0; j < o.reps; j++ {
			ests[j] = o.estimate(j, x)
		}
		f := medianInPlace(ests)
		if f >= thresh {
			out = append(out, ItemEstimate{Item: x, F: f * scale})
		}
	}
	sortEstimates(out)
	return out
}

// SampleSize returns the number of sampled items s.
func (o *Optimal) SampleSize() uint64 { return o.s }

// Params returns the Config the solver was built with; it survives
// checkpoint round-trips, so restore paths can recover the problem
// parameters from the state alone.
func (o *Optimal) Params() Config { return o.cfg }

// Len returns the number of stream positions consumed.
func (o *Optimal) Len() uint64 { return o.offered }

// Reps returns the number of independent repetitions R.
func (o *Optimal) Reps() int { return o.reps }

// Buckets returns the number of buckets per repetition u.
func (o *Optimal) Buckets() uint64 { return o.u }

// ModelBits charges T1 (raw ids, Θ(ϕ⁻¹·log n)), the T2/T3 cells at their
// variable-length cost (1 bit per empty cell, per the proof of Claim 3),
// the credit rows holding a credit, the hash seeds and the sampler.
func (o *Optimal) ModelBits() int64 {
	b := o.t1.ModelBits() + o.t2.bits(true) + o.pre.bits(false)
	for j := 0; j < o.reps; j++ {
		b += o.hashes[j].ModelBits()
	}
	for _, row := range o.t3 {
		for _, v := range row {
			b += cellBits(uint64(v))
		}
	}
	b += samplerModelBits(o.offered)
	return b
}

// cellBits charges one bit for an empty cell and the variable-length cost
// otherwise.
func cellBits(v uint64) int64 {
	if v == 0 {
		return 1
	}
	return compact.CounterBits(v)
}

// medianInPlace returns the median of xs, sorting it as a side effect.
func medianInPlace(xs []float64) float64 {
	// Insertion sort: xs has O(log ϕ⁻¹) entries.
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return xs[n/2-1]/2 + xs[n/2]/2
}
