// Package exact provides an exact frequency oracle. It is the ground truth
// every sketch is tested and benchmarked against; it makes no attempt to be
// small.
package exact

import "sort"

// Counter counts exact frequencies of stream items.
type Counter struct {
	freq  map[uint64]uint64
	total uint64
}

// New returns an empty counter.
func New() *Counter {
	return &Counter{freq: make(map[uint64]uint64)}
}

// Insert registers one occurrence of x.
func (c *Counter) Insert(x uint64) {
	c.freq[x]++
	c.total++
}

// Merge folds other into c: exact counts add, so the merged counter is
// exactly the counter of the concatenated streams. It is the ground-truth
// end of the mergeable-summary contract — the conformance suite compares
// every sketch merge against it.
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
