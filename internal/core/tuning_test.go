package core

import (
	"testing"
	"testing/quick"

	"repro/internal/exact"
	"repro/internal/rng"
	"repro/internal/stream"
)

// TestOptimalTuningVariants: the guarantees must be robust to reasonable
// constant choices, not an artifact of DefaultTuning.
func TestOptimalTuningVariants(t *testing.T) {
	const m = 409600
	variants := []Tuning{
		{A1SampleConst: 8, A1TableFactor: 4, A1HashRangeConst: 121,
			A2SampleConst: 256, A2BucketFactor: 64, A2RepFactor: 2, T2Rate: 1},
		{A1SampleConst: 8, A1TableFactor: 4, A1HashRangeConst: 121,
			A2SampleConst: 128, A2BucketFactor: 128, A2RepFactor: 3, T2Rate: 1},
		{A1SampleConst: 8, A1TableFactor: 4, A1HashRangeConst: 121,
			A2SampleConst: 128, A2BucketFactor: 64, A2RepFactor: 2, T2Rate: 0.5},
	}
	for vi, tun := range variants {
		cfg := listConfig(m)
		cfg.Tuning = tun
		st := plantedHH(uint64(40+vi), m, stream.Shuffled)
		ex := exact.New()
		a, err := NewOptimal(rng.New(uint64(50+vi)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range st {
			a.Insert(x)
			ex.Insert(x)
		}
		if !checkListOutput(t, a.Report(), ex, cfg.Eps, cfg.Phi) {
			t.Fatalf("variant %d violated guarantees", vi)
		}
	}
}

// TestSimpleListTuningVariants mirrors the above for Algorithm 1.
func TestSimpleListTuningVariants(t *testing.T) {
	const m = 400000
	variants := []Tuning{
		{A1SampleConst: 16, A1TableFactor: 4, A1HashRangeConst: 121,
			A2SampleConst: 128, A2BucketFactor: 64, A2RepFactor: 2, T2Rate: 1},
		{A1SampleConst: 8, A1TableFactor: 8, A1HashRangeConst: 400,
			A2SampleConst: 128, A2BucketFactor: 64, A2RepFactor: 2, T2Rate: 1},
	}
	for vi, tun := range variants {
		cfg := listConfig(m)
		cfg.Tuning = tun
		st := plantedHH(uint64(60+vi), m, stream.Shuffled)
		ex := exact.New()
		a, err := NewSimpleList(rng.New(uint64(70+vi)), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range st {
			a.Insert(x)
			ex.Insert(x)
		}
		if !checkListOutput(t, a.Report(), ex, cfg.Eps, cfg.Phi) {
			t.Fatalf("variant %d violated guarantees", vi)
		}
	}
}

// TestSimpleListT2Invariants drives random streams and checks the
// structural invariants of the T2 table after every phase: T2 ids are a
// subset of T1 keys and T2 never exceeds its capacity.
func TestSimpleListT2Invariants(t *testing.T) {
	err := quick.Check(func(seed uint64, xs []uint16) bool {
		cfg := Config{Eps: 0.1, Phi: 0.25, Delta: 0.2, M: uint64(len(xs) + 1), N: 1 << 16}
		a, err := NewSimpleList(rng.New(seed), cfg)
		if err != nil {
			return false
		}
		for _, x := range xs {
			a.Insert(uint64(x))
			if len(a.t2) > a.t2Cap {
				return false
			}
		}
		for hx := range a.t2 {
			if a.t1.Estimate(hx) == 0 {
				return false // T2 entry not backed by T1
			}
		}
		return true
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSimpleListT2FloorBound: t2Floor, below which refreshT2 skips its
// scan, never exceeds a T2 member's T1 count, through global
// decrements and merges alike. A floor above a member's count would
// skip an eviction the scan makes.
func TestSimpleListT2FloorBound(t *testing.T) {
	// M ≤ 6ℓ, so every item is sampled into 40 T1 counters and a T2
	// of 10.
	cfg := Config{Eps: 0.1, Phi: 0.25, Delta: 0.2, M: 1 << 10, N: 1 << 16}
	holds := func(a *SimpleList) bool {
		for hx := range a.t2 {
			if a.t1.Estimate(hx) < a.t2Floor {
				return false
			}
		}
		return true
	}
	for seed := uint64(1); seed <= 40; seed++ {
		src := rng.New(seed)
		feed := func(a *SimpleList, n int, id func() uint64) {
			for i := 0; i < n; i++ {
				a.Insert(id())
				if !holds(a) {
					t.Fatalf("seed %d: t2Floor %d above a T2 member's count after an insert", seed, a.t2Floor)
				}
			}
		}
		// 60 skewed ids: counts differ and global decrements recur.
		skewed := func() uint64 { return src.Uint64n(1 + src.Uint64n(60)) }
		// Merging 40 ids at about 25 each into 15 ids at about 65 each
		// cuts the receiver's counts by about 25 in the reduction.
		few := func() uint64 { return src.Uint64n(15) }
		many := func() uint64 { return 100 + src.Uint64n(40) }
		a, _ := NewSimpleList(rng.New(seed), cfg)
		feed(a, 2000, skewed)
		a, _ = NewSimpleList(rng.New(seed), cfg)
		b, _ := NewSimpleList(rng.New(seed), cfg)
		feed(a, 1000, few)
		feed(b, 1000, many)
		if err := a.Merge(b); err != nil {
			t.Fatal(err)
		}
		if !holds(a) {
			t.Fatalf("seed %d: t2Floor %d above a T2 member's count after a merge", seed, a.t2Floor)
		}
		feed(a, 500, skewed)
	}
}

// TestOptimalT3EpochsMonotone: accelerated-counter epochs only ever grow
// along a bucket's row, and no recorded epoch exceeds what the bucket's
// T2 value admits.
func TestOptimalT3EpochsMonotone(t *testing.T) {
	const m = 300000
	cfg := listConfig(m)
	a, err := NewOptimal(rng.New(80), cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := plantedHH(81, m, stream.Shuffled)
	for _, x := range st {
		a.Insert(x)
	}
	for j := 0; j < a.reps; j++ {
		for i := uint64(0); i < a.u; i++ {
			key := uint64(j)*a.u + i
			row := a.t3[key]
			if len(row) == 0 {
				continue
			}
			maxAdmissible := a.epoch(a.t2.at(key))
			if len(row)-1 > maxAdmissible {
				t.Fatalf("bucket (%d,%d): recorded epoch %d exceeds admissible %d (T2=%d)",
					j, i, len(row)-1, maxAdmissible, a.t2.at(key))
			}
		}
	}
}

// TestMaximumMatchesSimpleListEstimates: on the same seed and stream, the
// ε-Maximum solver's winning frequency is consistent with Algorithm 1's
// estimate for that item (both are the same hashed-MG machinery).
func TestMaximumMatchesSimpleListEstimates(t *testing.T) {
	const m = 200000
	st := plantedHH(82, m, stream.Shuffled)
	cfg := Config{Eps: 0.05, Phi: 0.1, Delta: 0.2, M: m, N: 1 << 32}
	mx, err := NewMaximum(rng.New(83), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sl, err := NewSimpleList(rng.New(83), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range st {
		mx.Insert(x)
		sl.Insert(x)
	}
	item, f, ok := mx.Report()
	if !ok {
		t.Fatal("no max")
	}
	// Same seed → same sampler and hash → identical estimates.
	if est := sl.Estimate(item); est != f {
		t.Fatalf("Maximum says %v, SimpleList estimates %v for item %d", f, est, item)
	}
}
