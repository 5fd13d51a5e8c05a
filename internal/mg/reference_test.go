package mg

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/wire"
)

// refSummary is the map-based Misra–Gries the flat table must match
// counter for counter: the oracle of the differential tests below.
type refSummary struct {
	k        int
	m        uint64
	counters map[uint64]uint64
}

func newRef(k int) *refSummary { return &refSummary{k: k, counters: map[uint64]uint64{}} }

func (r *refSummary) insert(x uint64) {
	r.m++
	if _, ok := r.counters[x]; ok {
		r.counters[x]++
	} else if len(r.counters) < r.k {
		r.counters[x] = 1
	} else {
		for y, c := range r.counters {
			if c == 1 {
				delete(r.counters, y)
			} else {
				r.counters[y] = c - 1
			}
		}
	}
}

func (r *refSummary) merge(o *refSummary) {
	for x, c := range o.counters {
		r.counters[x] += c
	}
	r.m += o.m
	reduceTopK(r.counters, r.k)
}

func (r *refSummary) encode(universe uint64) []byte {
	w := wire.NewWriter()
	w.U64(marshalVersion)
	w.U64(uint64(r.k))
	w.U64(universe)
	w.U64(r.m)
	w.Map(r.counters)
	return w.Bytes()
}

func (r *refSummary) candidates() []uint64 {
	out := make([]uint64, 0, len(r.counters))
	for x := range r.counters {
		out = append(out, x)
	}
	slices.SortFunc(out, func(a, b uint64) int {
		if ca, cb := r.counters[a], r.counters[b]; ca != cb {
			if ca > cb {
				return -1
			}
			return 1
		}
		if a < b {
			return -1
		}
		return 1
	})
	return out
}

// checkCounters fails unless s holds exactly r's counters and length.
func checkCounters(t *testing.T, s *Summary, r *refSummary) {
	t.Helper()
	if s.n != len(r.counters) || s.Len() != r.m {
		t.Fatalf("%d counters over %d items, reference %d over %d", s.n, s.Len(), len(r.counters), r.m)
	}
	for x, c := range r.counters {
		if got := s.Estimate(x); got != c {
			t.Fatalf("counter of %d is %d, reference %d", x, got, c)
		}
	}
}

// checkOutputs fails unless s's encoding, candidate order and model bits
// equal the reference's, and the occupied slots number s.n.
func checkOutputs(t *testing.T, s *Summary, r *refSummary) {
	t.Helper()
	checkCounters(t, s, r)
	if got := len(s.stored()); got != s.n {
		t.Fatalf("%d occupied slots, n = %d", got, s.n)
	}
	var w wire.Writer
	s.Encode(&w)
	if !bytes.Equal(w.Bytes(), r.encode(s.universe)) {
		t.Fatal("encoding differs from the reference")
	}
	if !slices.Equal(s.Candidates(), r.candidates()) {
		t.Fatalf("candidates %v, reference %v", s.Candidates(), r.candidates())
	}
}

// feed inserts xs into both, checking the counters after every insert.
func feed(t *testing.T, s *Summary, r *refSummary, xs []uint64) {
	t.Helper()
	for i, x := range xs {
		s.Insert(x)
		r.insert(x)
		checkCounters(t, s, r)
		if i%997 == 0 {
			checkOutputs(t, s, r)
		}
	}
	checkOutputs(t, s, r)
}

// randomStream mixes a small hot set (hits), a wider warm set (evictions)
// and ids differing only in their high bits (slot-hash stress).
func randomStream(src *rng.Source, k, n int) []uint64 {
	xs := make([]uint64, n)
	for i := range xs {
		switch src.Uint64n(4) {
		case 0:
			xs[i] = src.Uint64n(uint64(k) + 1)
		case 1:
			xs[i] = src.Uint64n(uint64(8*k) + 8)
		case 2:
			xs[i] = src.Uint64n(64) << 48
		default:
			xs[i] = src.Uint64()
		}
	}
	return xs
}

func TestSummaryMatchesReference(t *testing.T) {
	src := rng.New(21)
	for _, k := range []int{1, 2, 3, 7, 100} {
		s, r := New(k, 1<<20), newRef(k)
		feed(t, s, r, randomStream(src, k, 20000))

		// Merge two halves built independently, then keep inserting.
		a, ra := New(k, 1<<20), newRef(k)
		b, rb := New(k, 1<<20), newRef(k)
		feed(t, a, ra, randomStream(src, k, 3000))
		feed(t, b, rb, randomStream(src, k, 3000))
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		ra.merge(rb)
		checkOutputs(t, a, ra)
		feed(t, a, ra, randomStream(src, k, 3000))
		if err := a.Merge(s); err != nil {
			t.Fatal(err)
		}
		ra.merge(r)
		checkOutputs(t, a, ra)
	}
}

// worstCaseStream is 9,480 ids × 100, one id × 2,000 and one × 50,000,
// drawn from a 10⁷ universe and shuffled: a million items whose bulk of
// medium ids keeps a decrement-style summary sweeping.
func worstCaseStream(src *rng.Source) []uint64 {
	seen := map[uint64]bool{}
	var ids []uint64
	for len(ids) < 9482 {
		if x := src.Uint64n(10_000_000) + 1; !seen[x] {
			seen[x] = true
			ids = append(ids, x)
		}
	}
	var xs []uint64
	for _, x := range ids[:9480] {
		for j := 0; j < 100; j++ {
			xs = append(xs, x)
		}
	}
	for j := 0; j < 2000; j++ {
		xs = append(xs, ids[9480])
	}
	for j := 0; j < 50000; j++ {
		xs = append(xs, ids[9481])
	}
	for i := len(xs) - 1; i > 0; i-- {
		j := src.Uint64n(uint64(i) + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
	return xs
}

func TestSummaryMatchesReferenceWorstCase(t *testing.T) {
	xs := worstCaseStream(rng.New(22))
	for _, k := range []int{7, 100} {
		s, r := New(k, 10_000_001), newRef(k)
		feed(t, s, r, xs)
	}
}

// FuzzSummaryMatchesReference drives two summaries and their references
// through inserts, merges and encode/decode round trips, comparing after
// every op. The first byte picks k; each later byte is an op (top two
// bits) and an argument (low six).
func FuzzSummaryMatchesReference(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 4, 5, 6, 7, 1, 1, 0xC0, 65, 66, 67, 0x80, 9, 9})
	f.Add([]byte{0, 1, 2, 1, 2, 0xC0, 3, 0x80, 65})
	f.Add([]byte{7, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120, 0xFF, 0x80, 0xC1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 4096 {
			return
		}
		k := 1 + int(data[0]%8)
		a, ra := New(k, 1<<10), newRef(k)
		b, rb := New(k, 1<<10), newRef(k)
		for _, c := range data[1:] {
			x := uint64(c&63) * 0x9E3779B97F4A7C15 // spread over the whole word
			switch c >> 6 {
			case 0:
				a.Insert(x)
				ra.insert(x)
			case 1:
				b.Insert(x)
				rb.insert(x)
			case 2:
				if err := a.Merge(b); err != nil {
					t.Fatal(err)
				}
				ra.merge(rb)
				b, rb = New(k, 1<<10), newRef(k)
			case 3:
				blob, err := a.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(blob, ra.encode(1<<10)) {
					t.Fatal("encoding differs from the reference")
				}
				var back Summary
				if err := back.UnmarshalBinary(blob); err != nil {
					t.Fatal(err)
				}
				a = &back
			}
			checkCounters(t, a, ra)
			checkCounters(t, b, rb)
		}
		checkOutputs(t, a, ra)
		checkOutputs(t, b, rb)
	})
}
