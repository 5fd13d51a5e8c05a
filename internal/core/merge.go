package core

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/merge"
)

// Same-seed state folding for the paper's solvers (DESIGN.md §7).
//
// Two instances created from the same Config and seed share every random
// choice: the sampling rate p, the id-hash functions, and (for Algorithm
// 2) the bucket hashes and the subsampling coin rate. Each instance
// Bernoulli-samples its own substream at rate p, so the union of the two
// samples is distributed exactly like one instance's sample of the
// concatenated stream — item inclusion is position-based and oblivious to
// ids, so per-item sampled counts are the same Binomial(f, p) either way.
// The tables then combine by counter rules:
//
//   - Misra-Gries tables fold with the Agarwal et al. merge (sum
//     counters, subtract the (k+1)-st largest, drop non-positives),
//     which keeps the combined undercount ≤ s/(k+1) against the combined
//     sample length s — NOT the sum of the per-instance bounds.
//   - Algorithm 2's T2/T3 accelerated counters are per-bucket tallies
//     recorded at known rates; they add cell-wise, and the estimator's
//     Σ c_t/p_t remains unbiased because each increment carries its own
//     recording rate. The per-instance pre-epoch blind windows are
//     preserved via the pre-credit field (see Optimal.pre).
//
// Each solver splits the contract in two: CanMerge validates without
// mutating (the shard layer runs it across every shard before folding
// any, making container merges all-or-nothing), and Merge folds after
// re-running the same check.

// CanMerge reports whether other can be folded into a: both instances
// must have been created with the same Config and seed, and must not be
// the same instance (self-merge would double-count the stream). It never
// mutates either solver.
func (a *SimpleList) CanMerge(other *SimpleList) error {
	if a == other {
		return merge.Incompatiblef("core: cannot merge a solver into itself")
	}
	if a.cfg != other.cfg {
		return merge.Incompatiblef("core: config mismatch (different problem parameters or tuning)")
	}
	if a.h != other.h {
		return merge.Incompatiblef("core: hash functions differ (different seeds?)")
	}
	if a.t1.K() != other.t1.K() || a.t2Cap != other.t2Cap {
		return merge.Incompatiblef("core: derived table shapes differ")
	}
	return nil
}

// Merge folds other into a so that a summarizes the concatenation of both
// substreams. A failed CanMerge leaves a unchanged.
func (a *SimpleList) Merge(other *SimpleList) error {
	if err := a.CanMerge(other); err != nil {
		return err
	}
	// T1 is Misra-Gries over hashed ids and folds as one.
	if err := a.t1.Merge(other.t1); err != nil {
		return err
	}
	a.offered += other.offered
	// Fold T2 (hashed id → real id). Same hash function means the same
	// key space; on the δ-rare collision where the two nodes recorded
	// different real ids for one hash, keep the smaller id so merging is
	// commutative.
	for hx, id := range other.t2 {
		if cur, ok := a.t2[hx]; !ok || id < cur {
			a.t2[hx] = id
		}
	}
	// Keep T2 consistent with the reduced T1 and at its capacity: the
	// real ids of the highest-valued T1 entries, ties by ascending hashed
	// id (deterministic, so A←B and B←A trim identically).
	keys := make([]uint64, 0, len(a.t2))
	for hx := range a.t2 {
		if a.t1.Estimate(hx) == 0 {
			delete(a.t2, hx)
		} else {
			keys = append(keys, hx)
		}
	}
	a.t2Floor = 0
	if len(keys) > a.t2Cap {
		slices.SortFunc(keys, func(x, y uint64) int {
			if c := cmp.Compare(a.t1.Estimate(y), a.t1.Estimate(x)); c != 0 {
				return c
			}
			return cmp.Compare(x, y)
		})
		for _, hx := range keys[a.t2Cap:] {
			delete(a.t2, hx)
		}
	}
	return nil
}

// CanMerge reports whether other can be folded into o: same Config and
// seed, not the same instance. It never mutates either solver.
func (o *Optimal) CanMerge(other *Optimal) error {
	if o == other {
		return merge.Incompatiblef("core: cannot merge a solver into itself")
	}
	if o.cfg != other.cfg {
		return merge.Incompatiblef("core: config mismatch (different problem parameters or tuning)")
	}
	if o.u != other.u || o.reps != other.reps || o.epsK != other.epsK || o.base != other.base {
		return merge.Incompatiblef("core: derived table shapes differ")
	}
	for j := 0; j < o.reps; j++ {
		if o.hashes[j] != other.hashes[j] {
			return merge.Incompatiblef("core: bucket hash %d differs (different seeds?)", j)
		}
	}
	if o.t1.K() != other.t1.K() {
		return merge.Incompatiblef("core: candidate table widths differ")
	}
	return nil
}

// Merge folds other into o so that o summarizes the concatenation of both
// substreams. A failed CanMerge leaves o unchanged.
func (o *Optimal) Merge(other *Optimal) error {
	if err := o.CanMerge(other); err != nil {
		return err
	}
	if err := o.t1.Merge(other.t1); err != nil {
		return err
	}
	// T2 and the credit fold cell against cell. A cell where other holds
	// neither T2 nor credit would keep its value and gain no credit, so
	// only other's non-zero cells are visited: its T2 cells, then its
	// credit cells whose T2 is zero.
	for key := range other.t2.cells() {
		o.mergeCell(other, key)
	}
	for key := range other.pre.cells() {
		if other.t2.at(key) == 0 {
			o.mergeCell(other, key)
		}
	}
	// T3 rows add cell-wise; other holds only non-empty rows, and a row
	// that grows is copied so o never aliases other's.
	for key, rb := range other.t3 {
		ra := o.t3[key]
		if len(rb) > len(ra) {
			grown := make([]uint32, len(rb))
			copy(grown, ra)
			ra = grown
			o.t3[key] = ra
		}
		for t, v := range rb {
			ra[t] = satAdd32(ra[t], v)
		}
	}
	o.s += other.s
	o.offered += other.offered
	if other.maxEpoch > o.maxEpoch {
		o.maxEpoch = other.maxEpoch
	}
	return nil
}

// mergeCell folds other's T2 cell at key and its credit into o's.
func (o *Optimal) mergeCell(other *Optimal, key uint64) {
	ta, tb := uint64(o.t2.at(key)), uint64(other.t2.at(key))
	sum := ta + tb
	if sum > math.MaxUint32 {
		sum = math.MaxUint32
	}
	o.t2.set(key, uint32(sum))
	// Blind-window credit: the surplus of the two per-instance pre-epoch
	// covers over what min(T2, B) covers post-merge.
	surplus := math.Min(float64(ta), o.base) + math.Min(float64(tb), o.base) -
		math.Min(float64(sum), o.base)
	if credit := satAdd32(other.pre.at(key), uint32(surplus+0.5)); credit != 0 {
		o.pre.set(key, satAdd32(o.pre.at(key), credit))
	}
}

// satAdd32 adds with saturation at MaxUint32 so pathological merges clamp
// instead of wrapping.
func satAdd32(a, b uint32) uint32 {
	s := uint64(a) + uint64(b)
	if s > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(s)
}
