// Package exact provides an exact frequency oracle. It is the ground truth
// every sketch is tested and benchmarked against; it makes no attempt to be
// small. Audit and AuditWindow hold a sketch's report to the paper's
// (ε,ϕ)-List contract against these exact counts.
package exact

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
)

// Counter counts exact frequencies of stream items.
type Counter struct {
	freq  map[uint64]uint64
	total uint64
}

// New returns an empty counter.
func New() *Counter {
	return &Counter{freq: make(map[uint64]uint64)}
}

// Count returns the counter of items.
func Count(items []uint64) *Counter {
	c := New()
	for _, x := range items {
		c.Insert(x)
	}
	return c
}

// Insert registers one occurrence of x.
func (c *Counter) Insert(x uint64) {
	c.freq[x]++
	c.total++
}

// Merge folds other into c: exact counts add, so the merged counter is
// exactly the counter of the concatenated streams, the ground-truth end
// of the mergeable-summary contract.
func (c *Counter) Merge(other *Counter) {
	for x, f := range other.freq {
		c.freq[x] += f
	}
	c.total += other.total
}

// Freq returns the exact frequency of x.
func (c *Counter) Freq(x uint64) uint64 { return c.freq[x] }

// Total returns the stream length m.
func (c *Counter) Total() uint64 { return c.total }

// Distinct returns the number of distinct items seen.
func (c *Counter) Distinct() int { return len(c.freq) }

// Items returns all distinct items in ascending order.
func (c *Counter) Items() []uint64 {
	out := make([]uint64, 0, len(c.freq))
	for x := range c.freq {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HeavyHitters returns every item with frequency ≥ threshold, in ascending
// id order.
func (c *Counter) HeavyHitters(threshold uint64) []uint64 {
	var out []uint64
	for x, f := range c.freq {
		if f >= threshold {
			out = append(out, x)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Max returns an item of maximum frequency and that frequency. The
// lowest-id maximizer is returned for determinism; ok is false for an
// empty stream.
func (c *Counter) Max() (item, freq uint64, ok bool) {
	first := true
	for x, f := range c.freq {
		if first || f > freq || (f == freq && x < item) {
			item, freq, ok, first = x, f, true, false
		}
	}
	return item, freq, ok
}

// MinOver returns the item of minimum frequency over the given universe,
// counting absent items as frequency zero. The lowest-id minimizer is
// returned. It panics on an empty universe.
func (c *Counter) MinOver(universe []uint64) (item, freq uint64) {
	if len(universe) == 0 {
		panic("exact: empty universe")
	}
	item, freq = universe[0], c.freq[universe[0]]
	for _, x := range universe[1:] {
		if f := c.freq[x]; f < freq || (f == freq && x < item) {
			item, freq = x, f
		}
	}
	return item, freq
}

// Estimate is one reported item with its estimated frequency.
type Estimate struct {
	// Item is the reported item.
	Item uint64
	// F is its estimated frequency.
	F float64
}

// Reported is any report element shaped like Estimate, such as
// core.ItemEstimate, so Audit and AuditWindow take a sketch's report as
// it is.
type Reported interface {
	~struct {
		Item uint64
		F    float64
	}
}

// Verdict is one report held to the (ε,ϕ)-List contract of
// Bhattacharyya–Dey–Woodruff (arXiv 1603.00213): return every i with
// f_i ≥ ϕ·m, return no j with f_j ≤ (ϕ−ε)·m, and keep |f̃_i − f_i| ≤ ε·m
// for every returned i. Item lists are in ascending id order.
type Verdict struct {
	// Missed holds the ϕ-heavy items the report lacks.
	Missed []uint64
	// Off holds the reported items whose estimate is more than ε·m off.
	Off []uint64
	// False holds the reported items with frequency at or below (ϕ−ε)·m.
	False []uint64
	// Worst is the largest |f̃ − f| over the reported items, in units of
	// ε·m; 0 for an empty report.
	Worst float64

	errs []error // one per violation, with its numbers
}

// Err returns nil when the report meets the contract, and otherwise an
// error naming every violation with its numbers.
func (v Verdict) Err() error { return errors.Join(v.errs...) }

// Audit holds rep to the (ε,ϕ)-List contract over the whole stream that
// truth counted.
func Audit[E Reported](truth *Counter, rep []E, eps, phi float64) Verdict {
	return audit(truth, truth, rep, eps, phi)
}

// AuditWindow holds rep to the window form of the contract. rep answers
// for a sliding window over the last w items of stream and covers its
// last m items, the covered suffix M. Inclusion is checked over the last
// w items: every item with frequency ≥ ϕ·W there must be reported.
// Exclusion and estimates are checked over the covered suffix: nothing
// at or below (ϕ−ε)·M, and every estimate within ε·M of the item's
// frequency in it. w and m are clamped to the stream's length.
func AuditWindow[E Reported](stream []uint64, rep []E, w, m uint64, eps, phi float64) Verdict {
	suffix := func(n uint64) *Counter {
		return Count(stream[uint64(len(stream))-min(n, uint64(len(stream))):])
	}
	return audit(suffix(w), suffix(m), rep, eps, phi)
}

// audit checks inclusion against window's counts and exclusion and
// estimates against covered's.
func audit[E Reported](window, covered *Counter, rep []E, eps, phi float64) Verdict {
	var v Verdict
	got := make(map[uint64]float64, len(rep))
	for _, r := range rep {
		got[Estimate(r).Item] = Estimate(r).F
	}
	w := float64(window.Total())
	for _, x := range window.HeavyHitters(uint64(math.Ceil(phi * w))) {
		if _, ok := got[x]; !ok {
			v.Missed = append(v.Missed, x)
			v.errs = append(v.errs, fmt.Errorf("ϕ-heavy item %d (f=%d ≥ ϕ·W=%.0f) missing from the report", x, window.Freq(x), phi*w))
		}
	}
	m := float64(covered.Total())
	for _, x := range slices.Sorted(maps.Keys(got)) {
		f, est := covered.Freq(x), got[x]
		if float64(f) <= (phi-eps)*m {
			v.False = append(v.False, x)
			v.errs = append(v.errs, fmt.Errorf("item %d (f=%d ≤ (ϕ−ε)·M=%.0f) falsely reported", x, f, (phi-eps)*m))
		}
		diff := math.Abs(est - float64(f))
		if diff > eps*m {
			v.Off = append(v.Off, x)
			v.errs = append(v.errs, fmt.Errorf("item %d estimate %.0f vs f=%d is off by more than ε·M=%.0f", x, est, f, eps*m))
		}
		if eps*m > 0 {
			v.Worst = max(v.Worst, diff/(eps*m))
		}
	}
	return v
}
