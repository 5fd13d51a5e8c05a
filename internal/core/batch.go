package core

// sampledEngine is the seam between a solver's O(1) admission step
// (position bookkeeping and the sampling decision) and its per-sample
// table work. SimpleList, Optimal and Maximum implement it, and
// insertBatch drives it.
type sampledEngine interface {
	// advance offers the next n stream items and returns the offset of
	// the first one sampled, or n when none is, consuming the items up
	// to and including it (sample.Skip.Advance). O(1) worst case.
	advance(n int) int
	// process performs the per-sample table work for x.
	process(x uint64)
}

// insertBatch feeds items to e in order, as one Insert per item would,
// but jumps from one sampled item to the next: the unsampled items
// between two samples cost one subtraction together, not one sampler
// step each. It is the InsertBatch of SimpleList, Optimal and Maximum.
func insertBatch(e sampledEngine, items []uint64) {
	for k := e.advance(len(items)); k < len(items); k = e.advance(len(items)) {
		e.process(items[k])
		items = items[k+1:]
	}
}
