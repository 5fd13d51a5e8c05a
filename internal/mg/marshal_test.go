package mg

import (
	"errors"
	"math"
	"testing"

	"repro/internal/exact"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/wire"
)

func TestMarshalRoundTrip(t *testing.T) {
	s := New(10, 1000)
	for i := 0; i < 5000; i++ {
		s.Insert(uint64(i % 37))
	}
	blob, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored Summary
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if restored.Len() != s.Len() || restored.K() != s.K() {
		t.Fatal("scalars diverged")
	}
	for x := uint64(0); x < 37; x++ {
		if restored.Estimate(x) != s.Estimate(x) {
			t.Fatalf("estimate diverged for %d", x)
		}
	}
	// Continue both and re-compare.
	for i := 0; i < 1000; i++ {
		s.Insert(uint64(i % 7))
		restored.Insert(uint64(i % 7))
	}
	for x := uint64(0); x < 37; x++ {
		if restored.Estimate(x) != s.Estimate(x) {
			t.Fatalf("post-resume estimate diverged for %d", x)
		}
	}
}

func TestMarshalRejectsCorruption(t *testing.T) {
	s := New(5, 100)
	s.Insert(1)
	blob, _ := s.MarshalBinary()
	var r Summary
	if err := r.UnmarshalBinary(blob[:1]); err == nil {
		t.Fatal("truncated blob accepted")
	}
	if err := r.UnmarshalBinary(nil); err == nil {
		t.Fatal("empty blob accepted")
	}
	bad := append([]byte{}, blob...)
	bad[0] = 0xFF
	if err := r.UnmarshalBinary(bad); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestMarshalDeterministic(t *testing.T) {
	mk := func() []byte {
		s := New(8, 100)
		for i := 0; i < 100; i++ {
			s.Insert(uint64(i % 13))
		}
		b, _ := s.MarshalBinary()
		return b
	}
	if string(mk()) != string(mk()) {
		t.Fatal("encoding not deterministic")
	}
}

// TestMergeGuarantee: merging summaries of two stream halves preserves
// the Misra-Gries error bound over the concatenation.
func TestMergeGuarantee(t *testing.T) {
	const k = 20
	a, b := New(k, 500), New(k, 500)
	ex := exact.New()
	g := stream.NewZipf(rng.New(1), 500, 1.2)
	const m = 40000
	for i := 0; i < m; i++ {
		x := g.Next()
		ex.Insert(x)
		if i < m/2 {
			a.Insert(x)
		} else {
			b.Insert(x)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Len() != m {
		t.Fatalf("merged length %d", a.Len())
	}
	maxErr := uint64(m / (k + 1))
	for x := uint64(0); x < 500; x++ {
		est, f := a.Estimate(x), ex.Freq(x)
		if est > f {
			t.Fatalf("merged summary overcounts item %d: %d > %d", x, est, f)
		}
		if f > maxErr && est+maxErr < f {
			t.Fatalf("merged summary undercounts item %d: %d vs %d (bound %d)", x, est, f, maxErr)
		}
	}
	if a.n > k {
		t.Fatalf("merged summary holds %d > k entries", a.n)
	}
}

func TestMergeMismatchedK(t *testing.T) {
	if err := New(5, 10).Merge(New(6, 10)); err == nil {
		t.Fatal("mismatched k accepted")
	}
}

func TestMergeEmpty(t *testing.T) {
	a, b := New(5, 10), New(5, 10)
	a.Insert(1)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Estimate(1) != 1 || a.Len() != 1 {
		t.Fatal("merge with empty changed state")
	}
}

func TestQuickselectDesc(t *testing.T) {
	vs := []uint64{5, 1, 9, 3, 7}
	if got := quickselectDesc(append([]uint64{}, vs...), 0); got != 9 {
		t.Fatalf("rank 0 = %d", got)
	}
	if got := quickselectDesc(append([]uint64{}, vs...), 2); got != 5 {
		t.Fatalf("rank 2 = %d", got)
	}
	if got := quickselectDesc(append([]uint64{}, vs...), 4); got != 1 {
		t.Fatalf("rank 4 = %d", got)
	}
}

// TestDecodeRejectsImpossibleCounters: a zero counter or a k beyond int
// is no summary's encoding; a huge but representable k decodes with a
// table sized by its entries, not by k.
func TestDecodeRejectsImpossibleCounters(t *testing.T) {
	blob := func(k uint64, counters map[uint64]uint64) []byte {
		w := wire.NewWriter()
		w.U64(marshalVersion)
		w.U64(k)
		w.U64(100)
		w.U64(10)
		w.Map(counters)
		return w.Bytes()
	}
	var s Summary
	if err := s.UnmarshalBinary(blob(5, map[uint64]uint64{1: 3, 2: 0})); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("zero counter: err = %v, want ErrCorrupt", err)
	}
	if err := s.UnmarshalBinary(blob(1<<63, map[uint64]uint64{1: 3})); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("k = 2⁶³: err = %v, want ErrCorrupt", err)
	}
	if err := s.UnmarshalBinary(blob(math.MaxInt, map[uint64]uint64{1: 3, 2: 4})); err != nil {
		t.Fatal(err)
	}
	if len(s.slots) > initialSlots || s.Estimate(2) != 4 {
		t.Fatalf("k = MaxInt: %d slots, Estimate(2) = %d", len(s.slots), s.Estimate(2))
	}
	s.Insert(5)
	if s.Estimate(5) != 1 {
		t.Fatal("insert after decode lost the item")
	}
}
