package mg

import (
	"testing"
	"testing/quick"

	"repro/internal/exact"
	"repro/internal/rng"
	"repro/internal/stream"
)

func TestSmallExact(t *testing.T) {
	s := New(10, 100)
	for _, x := range []uint64{1, 2, 1, 3, 1} {
		s.Insert(x)
	}
	// Fewer distinct items than counters: counts are exact.
	if s.Estimate(1) != 3 || s.Estimate(2) != 1 || s.Estimate(3) != 1 {
		t.Fatal("exact regime counts wrong")
	}
	if s.Estimate(99) != 0 {
		t.Fatal("absent item must estimate 0")
	}
	if s.Len() != 5 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestPanicsOnZeroK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 10)
}

// TestUnderCountInvariant: f(x) − m/(k+1) ≤ Estimate(x) ≤ f(x), always.
func TestUnderCountInvariant(t *testing.T) {
	src := rng.New(1)
	for _, k := range []int{1, 5, 20} {
		for _, gen := range []stream.Generator{
			stream.NewUniform(rng.New(2), 50),
			stream.NewZipf(rng.New(3), 50, 1.3),
		} {
			s := New(k, 50)
			ex := exact.New()
			for i := 0; i < 20000; i++ {
				x := gen.Next()
				s.Insert(x)
				ex.Insert(x)
			}
			maxErr := s.Len() / uint64(k+1)
			for x := uint64(0); x < 50; x++ {
				est, f := s.Estimate(x), ex.Freq(x)
				if est > f {
					t.Fatalf("k=%d item %d: estimate %d exceeds true %d", k, x, est, f)
				}
				if f > maxErr && est+maxErr < f {
					t.Fatalf("k=%d item %d: estimate %d undercounts true %d by more than %d",
						k, x, est, f, maxErr)
				}
			}
			_ = src
		}
	}
}

func TestGuaranteedHeavyHitterPresence(t *testing.T) {
	// Any item with f > m/(k+1) must survive in the table.
	const k = 9
	s := New(k, 1000)
	st := stream.PlantedStream(rng.New(4), 10000, []float64{0.3, 0.15}, 100, 1000, stream.Shuffled)
	for _, x := range st {
		s.Insert(x)
	}
	cands := s.Candidates()
	found0, found1 := false, false
	for _, c := range cands {
		if c == 0 {
			found0 = true
		}
		if c == 1 {
			found1 = true
		}
	}
	if !found0 || !found1 {
		t.Fatalf("planted heavy items missing from candidates %v", cands)
	}
}

func TestCandidatesSortedByCount(t *testing.T) {
	s := New(5, 100)
	for i := 0; i < 10; i++ {
		s.Insert(7)
	}
	for i := 0; i < 5; i++ {
		s.Insert(8)
	}
	s.Insert(9)
	c := s.Candidates()
	if len(c) != 3 || c[0] != 7 || c[1] != 8 || c[2] != 9 {
		t.Fatalf("candidates = %v", c)
	}
}

func TestHeavyHittersThreshold(t *testing.T) {
	s := New(5, 100)
	for i := 0; i < 10; i++ {
		s.Insert(7)
	}
	s.Insert(8)
	hh := s.HeavyHitters(5)
	if len(hh) != 1 || hh[0] != 7 {
		t.Fatalf("heavy hitters = %v", hh)
	}
}

func TestAdversarialOrderings(t *testing.T) {
	// The guarantee is order-independent; verify on hostile arrangements.
	for _, order := range []stream.Order{stream.SortedRuns, stream.HeavyLast, stream.Interleave} {
		s := New(9, 1000)
		st := stream.PlantedStream(rng.New(5), 9000, []float64{0.25}, 100, 900, order)
		ex := exact.New()
		for _, x := range st {
			s.Insert(x)
			ex.Insert(x)
		}
		maxErr := s.Len() / 10
		if est := s.Estimate(0); est+maxErr < ex.Freq(0) {
			t.Fatalf("order %d: estimate %d vs true %d", order, est, ex.Freq(0))
		}
	}
}

func TestTableNeverExceedsK(t *testing.T) {
	err := quick.Check(func(xs []uint64) bool {
		s := New(4, 0)
		for _, x := range xs {
			s.Insert(x % 64)
			if s.n > 4 {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestModelBitsGrowth(t *testing.T) {
	s := New(10, 1024)
	for i := 0; i < 1000; i++ {
		s.Insert(uint64(i % 10))
	}
	// 10 entries × (10 id bits + ~8 count bits) ≈ 180; must be well under
	// raw 64-bit accounting and positive.
	b := s.ModelBits()
	if b <= 0 || b > 10*(10+64) {
		t.Fatalf("ModelBits = %d", b)
	}
}

func TestEmptySummary(t *testing.T) {
	s := New(3, 10)
	if len(s.Candidates()) != 0 || s.ModelBits() != 0 || s.GuaranteedError() != 0 {
		t.Fatal("empty summary not empty")
	}
}

func BenchmarkInsert(b *testing.B) {
	s := New(100, 1<<20)
	g := stream.NewZipf(rng.New(1), 1<<20, 1.1)
	xs := stream.Fill(g, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Insert(xs[i&(1<<16-1)])
	}
}
