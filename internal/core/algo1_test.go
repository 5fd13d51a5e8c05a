package core

import (
	"math"
	"testing"

	"repro/internal/exact"
	"repro/internal/rng"
	"repro/internal/stream"
)

// listConfig is the shared test configuration: ε = 0.05, ϕ = 0.1 over a
// 400k stream, so ϕ·m = 40960 and the forbidden zone is (0.05m, 0.1m).
func listConfig(m uint64) Config {
	return Config{Eps: 0.05, Phi: 0.1, Delta: 0.2, M: m, N: 1 << 32}
}

// plantedHH builds a stream with two ϕ-heavy items (ids 0, 1), two items
// safely below ϕ−ε (ids 2, 3) and uniform noise.
func plantedHH(seed uint64, m int, order stream.Order) []uint64 {
	return stream.PlantedStream(rng.New(seed), m,
		[]float64{0.15, 0.11, 0.03, 0.02}, 1000, 100000, order)
}

// checkListOutput verifies the three (ε,ϕ)-List guarantees against ground
// truth. Returns false on violation (callers vote across seeds).
func checkListOutput(t *testing.T, got []ItemEstimate, ex *exact.Counter, eps, phi float64) bool {
	t.Helper()
	m := float64(ex.Total())
	reported := map[uint64]float64{}
	for _, r := range got {
		reported[r.Item] = r.F
	}
	ok := true
	// Completeness: every f ≥ ϕm item is present.
	for _, x := range ex.HeavyHitters(uint64(math.Ceil(phi * m))) {
		if _, here := reported[x]; !here {
			t.Logf("missing ϕ-heavy item %d (f=%d)", x, ex.Freq(x))
			ok = false
		}
	}
	// Soundness: nothing at or below (ϕ−ε)m.
	for x := range reported {
		if float64(ex.Freq(x)) <= (phi-eps)*m {
			t.Logf("spurious item %d (f=%d ≤ (ϕ−ε)m)", x, ex.Freq(x))
			ok = false
		}
	}
	// Accuracy: |f̃ − f| ≤ ε·m for each reported item.
	for x, f := range reported {
		if math.Abs(f-float64(ex.Freq(x))) > eps*m {
			t.Logf("item %d estimate %v vs true %d beyond ε·m=%v", x, f, ex.Freq(x), eps*m)
			ok = false
		}
	}
	return ok
}

func TestSimpleListGuarantees(t *testing.T) {
	const m = 400000
	failures := 0
	const trials = 5
	for seed := uint64(0); seed < trials; seed++ {
		st := plantedHH(seed, m, stream.Shuffled)
		ex := exact.New()
		a, err := NewSimpleList(rng.New(100+seed), listConfig(m))
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range st {
			a.Insert(x)
			ex.Insert(x)
		}
		if !checkListOutput(t, a.Report(), ex, 0.05, 0.1) {
			failures++
		}
	}
	// δ = 0.2 per run; all five failing would be (far) out of spec.
	if failures > 2 {
		t.Fatalf("guarantees violated in %d/%d runs", failures, trials)
	}
}

func TestSimpleListAdversarialOrders(t *testing.T) {
	const m = 400000
	for _, order := range []stream.Order{stream.SortedRuns, stream.HeavyLast, stream.Interleave} {
		st := plantedHH(7, m, order)
		ex := exact.New()
		a, err := NewSimpleList(rng.New(55), listConfig(m))
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range st {
			a.Insert(x)
			ex.Insert(x)
		}
		if !checkListOutput(t, a.Report(), ex, 0.05, 0.1) {
			t.Fatalf("order %d violated guarantees", order)
		}
	}
}

func TestSimpleListTinyStreamExactPath(t *testing.T) {
	// m far below 6ℓ → sampling probability 1, behaviour is deterministic
	// hashed Misra-Gries.
	cfg := Config{Eps: 0.1, Phi: 0.3, Delta: 0.1, M: 100, N: 1000}
	a, err := NewSimpleList(rng.New(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		a.Insert(42)
	}
	for i := 0; i < 50; i++ {
		a.Insert(uint64(i + 100))
	}
	rep := a.Report()
	if len(rep) != 1 || rep[0].Item != 42 {
		t.Fatalf("report = %v, want only item 42", rep)
	}
	if math.Abs(rep[0].F-50) > 10 {
		t.Fatalf("estimate %v for true 50", rep[0].F)
	}
	if a.SampleSize() != 100 {
		t.Fatalf("p=1 path should sample everything, s=%d", a.SampleSize())
	}
}

func TestSimpleListEmptyReport(t *testing.T) {
	a, err := NewSimpleList(rng.New(1), listConfig(1000))
	if err != nil {
		t.Fatal(err)
	}
	if rep := a.Report(); rep != nil {
		t.Fatalf("report on empty stream = %v", rep)
	}
}

func TestSimpleListDeterministicForSeed(t *testing.T) {
	const m = 100000
	st := plantedHH(3, m, stream.Shuffled)
	run := func() []ItemEstimate {
		a, _ := NewSimpleList(rng.New(9), listConfig(m))
		for _, x := range st {
			a.Insert(x)
		}
		return a.Report()
	}
	r1, r2 := run(), run()
	if len(r1) != len(r2) {
		t.Fatal("same seed, different report lengths")
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("same seed, different reports")
		}
	}
}

func TestSimpleListConfigValidation(t *testing.T) {
	bad := []Config{
		{Eps: 0, Phi: 0.1, Delta: 0.1, M: 10, N: 10},
		{Eps: 0.2, Phi: 0.1, Delta: 0.1, M: 10, N: 10}, // eps ≥ phi
		{Eps: 0.05, Phi: 1.5, Delta: 0.1, M: 10, N: 10},
		{Eps: 0.05, Phi: 0.1, Delta: 0, M: 10, N: 10},
		{Eps: 0.05, Phi: 0.1, Delta: 1, M: 10, N: 10},
		{Eps: 0.05, Phi: 0.1, Delta: 0.1, M: 0, N: 10},
		{Eps: 0.05, Phi: 0.1, Delta: 0.1, M: 10, N: 0},
		{Eps: math.NaN(), Phi: 0.1, Delta: 0.1, M: 10, N: 10},
		{Eps: 0.05, Phi: math.NaN(), Delta: 0.1, M: 10, N: 10},
		{Eps: 0.05, Phi: 0.1, Delta: math.NaN(), M: 10, N: 10},
	}
	for i, cfg := range bad {
		if _, err := NewSimpleList(rng.New(1), cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestSimpleListSpaceBeatsRawIDs(t *testing.T) {
	// The point of hashing ids: T1 must not pay log n per entry. With
	// n = 2³², ε = 0.05, the model cost must be far below 1/ε × (32+counter).
	const m = 400000
	st := plantedHH(11, m, stream.Shuffled)
	a, _ := NewSimpleList(rng.New(12), listConfig(m))
	for _, x := range st {
		a.Insert(x)
	}
	bits := a.ModelBits()
	if bits <= 0 {
		t.Fatal("ModelBits must be positive")
	}
	rawCost := int64(float64(4/0.05) * (32 + 16)) // table of raw ids
	if bits > rawCost*4 {
		t.Fatalf("ModelBits %d not in the expected regime (raw-id cost ≈ %d)", bits, rawCost)
	}
}

func TestMaximumFindsMax(t *testing.T) {
	const m = 300000
	failures := 0
	const trials = 5
	for seed := uint64(0); seed < trials; seed++ {
		st := stream.PlantedStream(rng.New(seed), m,
			[]float64{0.3, 0.2}, 1000, 100000, stream.Shuffled)
		ex := exact.New()
		cfg := Config{Eps: 0.05, Delta: 0.2, M: m, N: 1 << 32}
		a, err := NewMaximum(rng.New(200+seed), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range st {
			a.Insert(x)
			ex.Insert(x)
		}
		item, f, ok := a.Report()
		if !ok {
			t.Fatal("no report")
		}
		_, trueMax, _ := ex.Max()
		if math.Abs(f-float64(trueMax)) > 0.05*float64(m) {
			t.Logf("seed %d: max estimate %v vs true %d", seed, f, trueMax)
			failures++
			continue
		}
		// The returned item must itself be within ε·m of the max (an
		// ε-approximate plurality winner, per §1's voting connection).
		if float64(trueMax)-float64(ex.Freq(item)) > 0.05*float64(m) {
			t.Logf("seed %d: reported item %d has f=%d, max=%d", seed, item, ex.Freq(item), trueMax)
			failures++
		}
	}
	if failures > 2 {
		t.Fatalf("ε-Maximum failed %d/%d runs", failures, trials)
	}
}

func TestMaximumTinyUniverse(t *testing.T) {
	// Theorem 3's min{1/ε, n}: with n = 4 the table holds the universe and
	// results are near exact.
	cfg := Config{Eps: 0.01, Delta: 0.1, M: 10000, N: 4}
	a, err := NewMaximum(rng.New(3), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		a.Insert(uint64(i) % 3) // ids 0,1,2 equally; id 2 boosted below
	}
	for i := 0; i < 3000; i++ {
		a.Insert(2)
	}
	item, f, ok := a.Report()
	if !ok || item != 2 {
		t.Fatalf("max item = %d (ok=%v), want 2", item, ok)
	}
	if math.Abs(f-6333) > 0.05*13000 {
		t.Fatalf("max estimate %v, want ≈6333", f)
	}
}

func TestMaximumEmpty(t *testing.T) {
	cfg := Config{Eps: 0.1, Delta: 0.1, M: 10, N: 10}
	a, _ := NewMaximum(rng.New(1), cfg)
	if _, _, ok := a.Report(); ok {
		t.Fatal("empty stream must not report")
	}
}

func TestMaximumModelBits(t *testing.T) {
	cfg := Config{Eps: 0.05, Delta: 0.1, M: 100000, N: 1 << 40}
	a, _ := NewMaximum(rng.New(2), cfg)
	for i := 0; i < 100000; i++ {
		a.Insert(uint64(i % 97))
	}
	if a.ModelBits() <= 0 {
		t.Fatal("ModelBits must be positive")
	}
	if a.Len() != 100000 {
		t.Fatalf("Len = %d", a.Len())
	}
}

func TestSimpleListPaperTuningSmoke(t *testing.T) {
	// PaperTuning's ℓ is enormous, so p = 1 and the algorithm degenerates
	// to exact hashed Misra-Gries — verify it still answers correctly.
	cfg := Config{Eps: 0.1, Phi: 0.3, Delta: 0.1, M: 2000, N: 1 << 20, Tuning: PaperTuning}
	a, err := NewSimpleList(rng.New(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		a.Insert(5)
	}
	for i := 0; i < 1000; i++ {
		a.Insert(uint64(1000 + i%500))
	}
	rep := a.Report()
	if len(rep) != 1 || rep[0].Item != 5 {
		t.Fatalf("paper tuning report = %v", rep)
	}
}
