package core

import (
	"math"

	"repro/internal/compact"
	"repro/internal/hash"
	"repro/internal/mg"
	"repro/internal/rng"
	"repro/internal/sample"
)

// hashedMG is what Algorithm 1 and ε-Maximum share. The stream is
// Bernoulli-sampled at rate ≈ ℓ/m for ℓ = Θ(ε⁻²·log δ⁻¹) (Lemma 3 keeps
// all relative frequencies within ±ε/4 of the sample). Each sampled id
// is hashed into a range of Θ(ℓ²/δ) so that, by Lemma 2, the sampled ids
// are collision-free with probability 1 − O(δ); the table T1 then runs
// Misra-Gries on the hashed ids, whose storage is O(log(ℓ²/δ)) =
// O(log ε⁻¹ + log log δ⁻¹) bits instead of O(log n).
type hashedMG struct {
	cfg     Config
	sampler *sample.Skip
	h       hash.Func
	t1      *mg.Summary // over hashed ids; its Len is the sample size s
	offered uint64      // stream positions consumed
}

// newHashedMG returns the shared state for a validated cfg, with
// tableLen counters in T1.
func newHashedMG(src *rng.Source, cfg Config, tableLen int) hashedMG {
	t := cfg.Tuning
	ell := t.sampleSizeA1(cfg.Eps, cfg.Delta)
	hashRange := max(uint64(math.Ceil(t.A1HashRangeConst*ell*ell/cfg.Delta)), 2)
	return hashedMG{
		cfg:     cfg,
		sampler: sample.NewSkip(src.Split(), math.Min(1, 6*ell/float64(cfg.M))),
		h:       hash.NewFunc(src, hashRange),
		t1:      mg.New(tableLen, hashRange),
	}
}

// advance implements sampledEngine's admission step for SimpleList and
// Maximum.
func (c *hashedMG) advance(n int) int {
	k := c.sampler.Advance(n)
	c.offered += uint64(min(k+1, n)) // through the sample, or all n
	return k
}

// sample runs T1's Misra-Gries update on x's hash and returns the hash
// and its counter after the update. The counter is 0 when T1 was full
// without x's hash, so the update decremented every counter instead.
func (c *hashedMG) sample(x uint64) (hx, count uint64) {
	hx = c.h.Hash(x)
	c.t1.Insert(hx)
	return hx, c.t1.Estimate(hx)
}

// scale converts a sampled count to the full stream: offered / s.
func (c *hashedMG) scale() float64 { return float64(c.offered) / float64(c.t1.Len()) }

// SampleSize returns the number of sampled items s.
func (c *hashedMG) SampleSize() uint64 { return c.t1.Len() }

// Len returns the number of stream positions consumed.
func (c *hashedMG) Len() uint64 { return c.offered }

// Params returns the Config the solver was built with (Tuning filled);
// it survives checkpoint round-trips, so restore paths can recover the
// problem parameters from the state alone.
func (c *hashedMG) Params() Config { return c.cfg }

// modelBits charges, per DESIGN.md §4, T1's hashed ids (log of the hash
// range, not log n) and counters, the hash seeds and the Lemma 1
// sampler.
func (c *hashedMG) modelBits() int64 {
	return c.t1.ModelBits() + c.h.ModelBits() + samplerModelBits(c.offered)
}

// SimpleList is Algorithm 1 of the paper: the conceptually simple,
// near-optimal (ε,ϕ)-List heavy hitters solver (Theorem 1). Besides the
// hashed Misra-Gries table T1 (hashedMG), the table T2 remembers the
// *real* ids of the top ⌈2/ϕ⌉ entries of T1, which is the only place
// Θ(log n) bits per item are spent.
type SimpleList struct {
	hashedMG
	t2    map[uint64]uint64 // hashed id → real id, |t2| ≤ t2Cap
	t2Cap int
	// t2Floor is a lower bound on the T1 counts of T2's members, so
	// refreshT2 skips its scan for a count that cannot beat them. Only a
	// global decrement or a merge lowers a member's count.
	t2Floor uint64
}

// NewSimpleList returns an Algorithm 1 instance for cfg. The returned
// solver expects exactly cfg.M calls to Insert (fewer is allowed; Report
// scales by the positions actually consumed).
func NewSimpleList(src *rng.Source, cfg Config) (*SimpleList, error) {
	if err := cfg.validate(true); err != nil {
		return nil, err
	}
	t2Cap := int(math.Ceil(2/cfg.Phi)) + 2
	return &SimpleList{
		hashedMG: newHashedMG(src, cfg, int(math.Ceil(cfg.Tuning.A1TableFactor/cfg.Eps))),
		t2:       make(map[uint64]uint64, t2Cap+1),
		t2Cap:    t2Cap,
	}, nil
}

// Insert processes one stream item in O(1) amortized time: one sampler
// decrement on the non-sampled fast path, and at most one sampled item
// per call. That one sample is not O(1) worst case: a Misra-Gries
// decrement sweeps the whole O(1/ε) table, and a T2 eviction scans its
// O(1/ϕ) entries.
func (a *SimpleList) Insert(x uint64) {
	if a.advance(1) == 0 {
		a.process(x)
	}
}

// InsertBatch processes items in order, as one Insert per item would,
// with O(1) work per sampled item rather than per item.
func (a *SimpleList) InsertBatch(items []uint64) { insertBatch(a, items) }

// process performs the per-sample table work: the Misra-Gries update on
// the hashed id, then T2 maintenance. A global decrement keeps T1's
// relative order, so it only drops the T2 entries whose counter reached
// zero.
func (a *SimpleList) process(x uint64) {
	hx, c := a.sample(x)
	if c > 0 {
		a.refreshT2(hx, x, c)
		return
	}
	a.t2Floor = max(a.t2Floor, 1) - 1
	for h2 := range a.t2 {
		if a.t1.Estimate(h2) == 0 {
			delete(a.t2, h2)
		}
	}
}

// refreshT2 maintains the invariant that t2 holds the real ids of the
// highest-valued entries of t1 (the "keep T2 consistent with T1" step of
// the pseudocode, cases 1–3) after x, hashed to hx, reached T1 count c.
// When T2 is full and c beats its smallest member's count, that member
// leaves: among the smallest counts the largest hashed id, the entry
// Merge's trim would drop, so the state depends on the stream alone.
// Cost is O(|t2|) = O(1/ϕ) only when a new id enters the top set, which
// amortizes per §3.1.
func (a *SimpleList) refreshT2(hx, x, c uint64) {
	if _, ok := a.t2[hx]; ok {
		return // case 3: already tracked
	}
	if len(a.t2) < a.t2Cap {
		a.t2[hx] = x // case: room available
		a.t2Floor = min(a.t2Floor, c)
		return
	}
	if c <= a.t2Floor {
		return
	}
	minHash, minVal := uint64(0), uint64(math.MaxUint64)
	for h2 := range a.t2 {
		if v := a.t1.Estimate(h2); v < minVal || v == minVal && h2 > minHash {
			minVal, minHash = v, h2
		}
	}
	a.t2Floor = minVal
	if c > minVal { // case 2
		delete(a.t2, minHash)
		a.t2[hx] = x
	}
}

// Report returns every item whose estimated frequency clears the
// (ϕ − ε/2)·s sample threshold, with estimates scaled to the full stream.
// With probability 1 − δ the output contains every item with f ≥ ϕ·m, no
// item with f ≤ (ϕ−ε)·m, and every estimate is within ε·m of the truth.
func (a *SimpleList) Report() []ItemEstimate {
	s := a.t1.Len()
	if s == 0 {
		return nil
	}
	scale := a.scale()
	thresh := (a.cfg.Phi - a.cfg.Eps/2) * float64(s)
	var out []ItemEstimate
	for hx, id := range a.t2 {
		if c := float64(a.t1.Estimate(hx)); c >= thresh {
			out = append(out, ItemEstimate{Item: id, F: c * scale})
		}
	}
	sortEstimates(out)
	return out
}

// ModelBits charges T1, the hash and the sampler (hashedMG.modelBits)
// plus T2's real ids at log n each.
func (a *SimpleList) ModelBits() int64 {
	return a.modelBits() + int64(len(a.t2))*compact.IDBits(a.cfg.N)
}

// Maximum is the ε-Maximum solver (Theorem 3): Algorithm 1 with the T2
// table replaced by the single id whose hashed counter is currently
// largest. It answers both "what is the maximum frequency, ±ε·m"
// (IITK 2006 Open Question 3 for ℓ1) and "which item attains it".
type Maximum struct {
	hashedMG
	maxID   uint64
	maxHash uint64
	haveMax bool
}

// NewMaximum returns an ε-Maximum instance for cfg (cfg.Phi is ignored).
func NewMaximum(src *rng.Source, cfg Config) (*Maximum, error) {
	cfg.Phi = 1 // unused; satisfy validation
	if err := cfg.validate(false); err != nil {
		return nil, err
	}
	// min{1/ε, n} counters: when the universe is smaller than 1/ε the table
	// can simply hold it (Theorem 3's min{1/ε, n} term).
	tableLen := int(math.Ceil(cfg.Tuning.A1TableFactor / cfg.Eps))
	if cfg.N < uint64(tableLen) {
		tableLen = int(cfg.N)
	}
	return &Maximum{hashedMG: newHashedMG(src, cfg, tableLen)}, nil
}

// Insert processes one stream item in O(1) amortized time.
func (a *Maximum) Insert(x uint64) {
	if a.advance(1) == 0 {
		a.process(x)
	}
}

// InsertBatch processes items in order, as one Insert per item would,
// with O(1) work per sampled item rather than per item.
func (a *Maximum) InsertBatch(items []uint64) { insertBatch(a, items) }

// process performs the per-sample table work: the hashed Misra-Gries
// update and the running-argmax maintenance.
func (a *Maximum) process(x uint64) {
	hx, c := a.sample(x)
	if c == 0 {
		if a.haveMax && a.t1.Estimate(a.maxHash) == 0 {
			a.haveMax = false // the global decrement evicted the argmax
		}
		return
	}
	// Track the argmax: store the actual id (not just the hash) so Report
	// can name the item.
	if !a.haveMax || c >= a.t1.Estimate(a.maxHash) {
		a.maxID, a.maxHash, a.haveMax = x, hx, true
	}
}

// Report returns the item with (approximately) maximum frequency and the
// estimate of that frequency scaled to the full stream; ok is false when
// nothing was sampled.
func (a *Maximum) Report() (item uint64, freq float64, ok bool) {
	if a.t1.Len() == 0 || !a.haveMax {
		return 0, 0, false
	}
	return a.maxID, float64(a.t1.Estimate(a.maxHash)) * a.scale(), true
}

// ModelBits charges the hashed table, one real id, the hash seeds and the
// sampler — the O(min{1/ε,n}(log 1/ε + log log 1/δ) + log n + log log m)
// of Theorem 3.
func (a *Maximum) ModelBits() int64 {
	return a.modelBits() + compact.IDBits(a.cfg.N) // the single tracked real id
}

// samplerModelBits is the Lemma 1 charge for sampling against a stream of
// length m: O(log log m).
func samplerModelBits(m uint64) int64 {
	return compact.BitsFor(uint64(compact.BitsFor(m))) + 1
}
