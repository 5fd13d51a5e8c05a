package cms

import (
	"testing"

	"repro/internal/exact"
	"repro/internal/rng"
	"repro/internal/stream"
)

func TestNeverUnderestimates(t *testing.T) {
	s := New(rng.New(1), 0.01, 0.01)
	ex := exact.New()
	g := stream.NewZipf(rng.New(2), 1000, 1.1)
	for i := 0; i < 50000; i++ {
		x := g.Next()
		s.Insert(x)
		ex.Insert(x)
	}
	for x := uint64(0); x < 1000; x++ {
		if s.Estimate(x) < ex.Freq(x) {
			t.Fatalf("item %d: CMS estimate %d below true %d", x, s.Estimate(x), ex.Freq(x))
		}
	}
}

func TestErrorWithinEpsM(t *testing.T) {
	const eps = 0.01
	s := New(rng.New(3), eps, 0.001)
	ex := exact.New()
	g := stream.NewZipf(rng.New(4), 1000, 1.3)
	const m = 100000
	for i := 0; i < m; i++ {
		x := g.Next()
		s.Insert(x)
		ex.Insert(x)
	}
	bad := 0
	for x := uint64(0); x < 1000; x++ {
		if s.Estimate(x) > ex.Freq(x)+uint64(eps*m) {
			bad++
		}
	}
	// δ=0.001 per item; over 1000 items a couple of failures would already
	// be unlucky. Allow a small margin.
	if bad > 5 {
		t.Fatalf("%d/1000 items exceed the ε·m error bound", bad)
	}
}

func TestHeavyHittersFromCandidates(t *testing.T) {
	s := New(rng.New(7), 0.01, 0.01)
	st := stream.PlantedStream(rng.New(8), 20000, []float64{0.3, 0.1}, 100, 1000, stream.Shuffled)
	for _, x := range st {
		s.Insert(x)
	}
	cands := []uint64{0, 1, 100, 101, 102}
	hh := s.HeavyHitters(cands, uint64(0.05*20000))
	if len(hh) < 2 || hh[0] != 0 || hh[1] != 1 {
		t.Fatalf("heavy hitters = %v", hh)
	}
	for _, x := range hh[2:] {
		if x == 100 || x == 101 || x == 102 {
			// Noise ids might sneak in only if the sketch wildly overcounts.
			if s.Estimate(x) > uint64(0.05*20000) {
				continue // legitimately above threshold due to collisions
			}
			t.Fatalf("noise item %d reported without estimate support", x)
		}
	}
}

func TestDims(t *testing.T) {
	s := NewWithDims(rng.New(9), 3, 128)
	if s.Depth() != 3 || s.Width() != 128 {
		t.Fatalf("dims = %d×%d", s.Depth(), s.Width())
	}
}

func TestPanicsOnBadParams(t *testing.T) {
	for _, f := range []func(){
		func() { New(rng.New(1), 0, 0.1) },
		func() { New(rng.New(1), 1.5, 0.1) },
		func() { New(rng.New(1), 0.1, 0) },
		func() { NewWithDims(rng.New(1), 0, 10) },
		func() { NewWithDims(rng.New(1), 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestModelBitsTracksLoad(t *testing.T) {
	s := NewWithDims(rng.New(10), 2, 64)
	empty := s.ModelBits()
	for i := 0; i < 10000; i++ {
		s.Insert(uint64(i % 100))
	}
	if s.ModelBits() <= empty {
		t.Fatal("ModelBits did not grow with counter load")
	}
}

func TestLen(t *testing.T) {
	s := NewWithDims(rng.New(11), 2, 8)
	for i := 0; i < 17; i++ {
		s.Insert(1)
	}
	if s.Len() != 17 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func BenchmarkInsert(b *testing.B) {
	s := New(rng.New(1), 0.001, 0.01)
	for i := 0; i < b.N; i++ {
		s.Insert(uint64(i % 65536))
	}
}
