package main

import (
	"math/rand/v2"
	"sort"
)

// Stream shape. Every workload cycles one buffer of i.i.d. Zipf draws, so
// exact truth for any stretch of the stream is a multiple of the buffer's
// counts plus the counts of a partial stretch.
const (
	zipfRanks = 1 << 20 // support of the Zipf distribution
	zipfS     = 1.1     // Zipf exponent
	bufItems  = 1 << 22 // length of the cycled buffer

	itemBits = 30
	itemMask = 1<<itemBits - 1
	// rankMul and rankAdd map rank r to item (r·rankMul + rankAdd) mod 2³⁰,
	// a bijection of [0, 2³⁰) because rankMul is odd. Scattering the ranks
	// keeps the hottest items away from small, adjacent ids.
	rankMul = 0x2545F491
	rankAdd = 0x1B873593
)

// rankInv is rankMul's inverse modulo 2³⁰.
var rankInv = func() uint64 {
	inv := uint64(rankMul)
	for i := 0; i < 5; i++ { // Newton's iteration doubles the correct low bits each step
		inv *= 2 - rankMul*inv
	}
	return inv & itemMask
}()

// itemOf maps a 0-based Zipf rank to the item the programs receive.
func itemOf(rank uint32) uint64 { return (uint64(rank)*rankMul + rankAdd) & itemMask }

// rankOf inverts itemOf; ok is false for items no rank maps to.
func rankOf(item uint64) (uint32, bool) {
	if item > itemMask {
		return 0, false
	}
	r := ((item - rankAdd) * rankInv) & itemMask
	return uint32(r), r < zipfRanks
}

// input is one seed's stream: the cycled buffer, its ranks, and the
// buffer's exact rank counts.
type input struct {
	items  []uint64
	ranks  []uint32
	counts []uint64 // per rank, over one pass of the buffer
}

// newInput draws n items from Zipf(zipfS) over zipfRanks ranks with a
// generator seeded by seed alone.
func newInput(seed uint64, n int) *input {
	cdf := zipfCDF(zipfRanks, zipfS)
	rnd := rand.New(rand.NewPCG(seed, 0x9E3779B97F4A7C15))
	in := &input{
		items:  make([]uint64, n),
		ranks:  make([]uint32, n),
		counts: make([]uint64, zipfRanks),
	}
	for i := range in.items {
		r := min(sort.SearchFloat64s(cdf, rnd.Float64()), zipfRanks-1)
		in.ranks[i] = uint32(r)
		in.items[i] = itemOf(uint32(r))
		in.counts[r]++
	}
	return in
}

// at returns the chunk of n items starting at stream offset off; chunks
// never straddle the end of the buffer because every chunk size divides
// the buffer length.
func (in *input) at(off uint64, n int) []uint64 {
	i := int(off % uint64(len(in.items)))
	return in.items[i : i+n]
}

// prefixCounts adds the exact rank counts of stream positions [0, n) to dst.
func (in *input) prefixCounts(dst []uint64, n uint64) {
	full, rem := n/uint64(len(in.items)), n%uint64(len(in.items))
	if full > 0 {
		for r, c := range in.counts {
			dst[r] += full * c
		}
	}
	for _, r := range in.ranks[:rem] {
		dst[r]++
	}
}

// rangeCounts returns the exact rank counts of stream positions [lo, hi).
func (in *input) rangeCounts(lo, hi uint64) []uint64 {
	out := make([]uint64, zipfRanks)
	in.prefixCounts(out, hi)
	low := make([]uint64, zipfRanks)
	in.prefixCounts(low, lo)
	for r := range out {
		out[r] -= low[r]
	}
	return out
}
