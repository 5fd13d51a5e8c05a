package mg

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"repro/internal/merge"
	"repro/internal/wire"
)

// marshalVersion guards the encoding layout.
const marshalVersion = 1

// MarshalBinary encodes the full summary state. The format is
// deterministic: equal summaries produce equal bytes.
func (s *Summary) MarshalBinary() ([]byte, error) {
	w := wire.NewWriter()
	s.Encode(w)
	return w.Bytes(), nil
}

// UnmarshalBinary decodes a summary written by MarshalBinary, replacing
// the receiver's state.
func (s *Summary) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	dec := DecodeSummary(r)
	if dec == nil || !r.Done() {
		return fmt.Errorf("mg: %w", wire.ErrCorrupt)
	}
	*s = *dec
	return nil
}

// Encode appends the summary to w: a header, then the counters as
// EncodeCounters writes them.
func (s *Summary) Encode(w *wire.Writer) {
	w.U64(marshalVersion)
	w.U64(uint64(s.k))
	w.U64(s.universe)
	w.U64(s.m)
	s.EncodeCounters(w)
}

// EncodeCounters appends the stored counters as wire.Writer.Map writes
// a map: their number, then the (id, counter) pairs ascending by id.
func (s *Summary) EncodeCounters(w *wire.Writer) {
	cs := s.stored()
	slices.SortFunc(cs, func(a, b slot) int { return cmp.Compare(a.id, b.id) })
	w.U64(uint64(len(cs)))
	for _, sl := range cs {
		w.U64(sl.id)
		w.U64(sl.c)
	}
}

// DecodeSummary reads a summary written by Encode; nil on corrupt input,
// including any state FromCounters refuses.
func DecodeSummary(r *wire.Reader) *Summary {
	if r.U64() != marshalVersion {
		return nil
	}
	k := r.U64()
	universe := r.U64()
	m := r.U64()
	counters := r.Map()
	if r.Err() != nil {
		return nil
	}
	return FromCounters(k, universe, m, counters)
}

// FromCounters returns the summary with k counters over universe that
// has processed m items and holds counters; nil if no summary holds
// that: k of 0 or above MaxInt, more than k counters, a zero counter.
func FromCounters(k, universe, m uint64, counters map[uint64]uint64) *Summary {
	if k == 0 || k > math.MaxInt || uint64(len(counters)) > k {
		return nil
	}
	for _, c := range counters {
		if c == 0 {
			return nil
		}
	}
	s := &Summary{k: int(k), universe: universe, m: m, mul: rand.Uint64() | 1}
	s.fill(counters)
	return s
}

// fill replaces the table by one holding counters' entries. A zero entry
// (a merged sum that wrapped past 2⁶⁴) is dropped: zero marks an empty
// slot.
func (s *Summary) fill(counters map[uint64]uint64) {
	s.resize(2 * min(s.k, max(len(counters), initialSlots/2)))
	for x, c := range counters {
		if c != 0 {
			s.place(x, c)
		}
	}
}

// counterMap returns the stored counters as a map.
func (s *Summary) counterMap() map[uint64]uint64 {
	out := make(map[uint64]uint64, s.n)
	for _, sl := range s.slots {
		if sl.c != 0 {
			out[sl.id] = sl.c
		}
	}
	return out
}

// Merge folds other into s: the result summarizes the concatenation of
// the two input streams with the same k-counter guarantee
// (f(x) − (m₁+m₂)/(k+1) ≤ Estimate(x) ≤ f(x)), per the mergeability
// result of Agarwal et al. for Misra-Gries summaries: add counters
// pointwise, then subtract the (k+1)-st largest value from every counter
// and drop non-positives.
func (s *Summary) Merge(other *Summary) error {
	if s.k != other.k {
		return merge.Incompatiblef("mg: cannot merge summaries with k=%d and k=%d", s.k, other.k)
	}
	counters := s.counterMap()
	for _, sl := range other.slots {
		if sl.c != 0 {
			counters[sl.id] += sl.c
		}
	}
	s.m += other.m
	reduceTopK(counters, s.k)
	s.fill(counters)
	return nil
}

// reduceTopK applies the Misra-Gries merge reduction in place: when
// counters holds more than k entries, subtract the (k+1)-st largest
// value from every entry and drop the non-positive ones, leaving at most
// k.
func reduceTopK(counters map[uint64]uint64, k int) {
	if len(counters) <= k {
		return
	}
	vals := make([]uint64, 0, len(counters))
	for _, c := range counters {
		vals = append(vals, c)
	}
	kth := quickselectDesc(vals, k) // value at rank k (0-based): the (k+1)-st largest
	for x, c := range counters {
		if c <= kth {
			delete(counters, x)
		} else {
			counters[x] = c - kth
		}
	}
}

// quickselectDesc returns the element of rank `rank` (0-based) in
// descending order, i.e. rank 0 is the maximum. It partially reorders vs.
func quickselectDesc(vs []uint64, rank int) uint64 {
	lo, hi := 0, len(vs)-1
	for lo < hi {
		p := vs[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for vs[i] > p {
				i++
			}
			for vs[j] < p {
				j--
			}
			if i <= j {
				vs[i], vs[j] = vs[j], vs[i]
				i++
				j--
			}
		}
		if rank <= j {
			hi = j
		} else if rank >= i {
			lo = i
		} else {
			break
		}
	}
	return vs[rank]
}
