// Package mg implements the Misra–Gries frequent-items summary [MG82],
// rediscovered by Demaine et al. [DLOM02] and Karp et al. [KSP03].
//
// This is the prior state of the art the paper improves on: with k
// counters over a stream of length m it deterministically guarantees
//
//	f(x) − m/(k+1)  ≤  Estimate(x)  ≤  f(x)
//
// and costs O(k·(log n + log m)) bits — the O(ε⁻¹(log n + log m)) baseline
// of the paper's introduction when k = ⌈1/ε⌉. It is also the table T1 of
// all three of the paper's sampling solvers (package core): Algorithm 2
// runs it over raw ids to track candidates, while Algorithm 1 and
// ε-Maximum run it over hashed ids, so a stored id costs the log of the
// hash range rather than log n.
//
// Updates are O(1) amortized: a full-table decrement costs O(k) but is paid
// for by the k increments that preceded it.
package mg

import (
	"cmp"
	"math/bits"
	"math/rand/v2"
	"slices"

	"repro/internal/compact"
)

// Summary is a Misra–Gries summary with a fixed number of counters.
//
// The counters live in an open-addressing table with linear probing: a
// slot hash (x·mul) >> shift with an odd multiplier drawn at random per
// summary, so no fixed id set forces long probe chains, and a table of
// at least two slots per stored counter. The table grows by doubling up
// to the power of two ≥ 2k. The layout never reaches an output: every
// observable (Encode, Candidates, ModelBits, Merge) orders by id or by
// count.
type Summary struct {
	k        int
	slots    []slot // len is a power of two, ≥ 2·n
	n        int    // occupied slots
	spare    []slot // decrementAll's survivors, reused across sweeps
	shift    uint8  // 64 − log₂ len(slots)
	mul      uint64 // odd multiplier of the slot hash
	m        uint64 // stream length processed
	universe uint64 // for space accounting
}

// slot is one (id, counter) cell; a zero counter marks an empty slot.
type slot struct{ id, c uint64 }

// initialSlots caps the table New allocates up front; larger summaries
// grow to their full size as counters fill.
const initialSlots = 256

// New returns a summary with k counters for items drawn from a universe of
// the given size (universe is used only for space accounting; pass 0 if
// unknown and ids will be charged at 64 bits).
func New(k int, universe uint64) *Summary {
	if k <= 0 {
		panic("mg: need at least one counter")
	}
	if universe == 0 {
		universe = 1 << 63
	}
	s := &Summary{k: k, universe: universe, mul: rand.Uint64() | 1}
	s.resize(2 * min(k, initialSlots/2))
	return s
}

// resize replaces the table by an empty one of the smallest power of two
// ≥ want slots (at least 2).
func (s *Summary) resize(want int) {
	lg := bits.Len(uint(max(want, 2) - 1))
	s.slots = make([]slot, 1<<lg)
	s.shift = uint8(64 - lg)
	s.n = 0
}

// home returns the first slot x probes.
func (s *Summary) home(x uint64) int { return int((x * s.mul) >> s.shift) }

// find returns the slot holding x, or the empty slot ending x's probe
// sequence.
func (s *Summary) find(x uint64) int {
	mask := len(s.slots) - 1
	i := s.home(x)
	for s.slots[i].c != 0 && s.slots[i].id != x {
		i = (i + 1) & mask
	}
	return i
}

// place stores a counter for an id known to be absent, doubling the table
// first when it would pass half full.
func (s *Summary) place(x, c uint64) {
	if 2*(s.n+1) > len(s.slots) {
		old := s.slots
		s.resize(2 * len(old))
		for _, sl := range old {
			if sl.c != 0 {
				s.place(sl.id, sl.c)
			}
		}
	}
	s.slots[s.find(x)] = slot{x, c}
	s.n++
}

// K returns the number of counters.
func (s *Summary) K() int { return s.k }

// Len returns the stream length processed so far.
func (s *Summary) Len() uint64 { return s.m }

// Insert processes one stream item.
func (s *Summary) Insert(x uint64) {
	s.m++
	i := s.find(x)
	switch {
	case s.slots[i].c != 0:
		s.slots[i].c++
	case s.n >= s.k:
		// Table full: decrement everything (the arriving item cancels
		// against one unit of each stored item) and drop zeros.
		s.decrementAll()
	case 2*(s.n+1) > len(s.slots):
		s.place(x, 1) // grows the table first
	default:
		s.slots[i] = slot{x, 1}
		s.n++
	}
}

// decrementAll decrements every counter and drops the ones reaching zero
// in one sweep: the survivors (counters above 1, usually few) are set
// aside, the table is cleared, and they are re-placed from their homes.
// The sweep's only branch is the rare survivor test, so it runs at
// memory speed even when occupancy looks random.
func (s *Summary) decrementAll() {
	kept := s.spare[:0]
	for _, sl := range s.slots {
		if sl.c > 1 {
			kept = append(kept, slot{sl.id, sl.c - 1})
		}
	}
	clear(s.slots)
	for _, sl := range kept {
		s.slots[s.find(sl.id)] = sl
	}
	s.n = len(kept)
	s.spare = kept
}

// Estimate returns the summary's (under-)estimate of x's frequency.
func (s *Summary) Estimate(x uint64) uint64 { return s.slots[s.find(x)].c }

// GuaranteedError returns the maximum undercount, m/(k+1).
func (s *Summary) GuaranteedError() uint64 { return s.m / uint64(s.k+1) }

// byCount returns the stored counters in decreasing-count order, ties by
// ascending id.
func (s *Summary) byCount() []slot {
	out := s.stored()
	slices.SortFunc(out, func(a, b slot) int {
		if c := cmp.Compare(b.c, a.c); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	return out
}

// stored returns the occupied slots in table order.
func (s *Summary) stored() []slot {
	out := make([]slot, 0, s.n)
	for _, sl := range s.slots {
		if sl.c != 0 {
			out = append(out, sl)
		}
	}
	return out
}

// Candidates returns all stored items in decreasing-count order (ties by
// ascending id). Every item with f(x) > m/(k+1) is guaranteed present.
func (s *Summary) Candidates() []uint64 {
	sorted := s.byCount()
	out := make([]uint64, len(sorted))
	for i, sl := range sorted {
		out[i] = sl.id
	}
	return out
}

// HeavyHitters returns the stored items whose estimate is at least
// threshold, in decreasing-count order.
func (s *Summary) HeavyHitters(threshold uint64) []uint64 {
	var out []uint64
	for _, sl := range s.byCount() {
		if sl.c >= threshold {
			out = append(out, sl.id)
		}
	}
	return out
}

// ModelBits charges every stored (id, counter) pair per DESIGN.md §4.
func (s *Summary) ModelBits() int64 {
	idBits := compact.IDBits(s.universe)
	var b int64
	for _, sl := range s.slots {
		if sl.c != 0 {
			b += idBits + compact.CounterBits(sl.c)
		}
	}
	return b
}
