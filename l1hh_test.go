package l1hh

import (
	"math"
	"testing"
)

func TestPublicUnknownLength(t *testing.T) {
	hh, err := New(WithEps(0.1), WithPhi(0.3), WithDelta(0.1), WithUniverse(1<<20), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	st := GeneratePlantedStream(2, 50000, []float64{0.5}, 100, 10000, OrderShuffled)
	if err := hh.InsertBatch(st); err != nil {
		t.Fatal(err)
	}
	rep := hh.Report()
	if len(rep) == 0 || rep[0].Item != 0 {
		t.Fatalf("unknown-length report = %v", rep)
	}
}

func TestPublicMaximum(t *testing.T) {
	mx, err := New(WithProblem(MaxFrequencyProblem), WithEps(0.05), WithDelta(0.1),
		WithStreamLength(100000), WithUniverse(1<<20), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	st := GeneratePlantedStream(4, 100000, []float64{0.3}, 100, 10000, OrderShuffled)
	if err := mx.InsertBatch(st); err != nil {
		t.Fatal(err)
	}
	est, _, err := mx.(Extremes).MaxItem()
	if err != nil || est.Item != 0 {
		t.Fatalf("max item = %d err=%v", est.Item, err)
	}
	if math.Abs(est.F-30000) > 5000 {
		t.Fatalf("max estimate %v, want ≈30000", est.F)
	}
}

func TestPublicMinimum(t *testing.T) {
	mn, err := New(WithProblem(MinFrequencyProblem), WithEps(0.1), WithDelta(0.1),
		WithStreamLength(50000), WithUniverse(8), WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50000; i++ {
		if err := mn.Insert(Item(i % 7)); err != nil { // id 7 never occurs
			t.Fatal(err)
		}
	}
	r, _, err := mn.(Extremes).MinItem()
	if err != nil {
		t.Fatal(err)
	}
	if r.Item != 7 {
		t.Fatalf("min item = %d, want 7", r.Item)
	}
	if r.F > 0.1*50000 {
		t.Fatalf("min estimate %v not within ε·m of 0", r.F)
	}
}

func TestPublicBordaAndMaximin(t *testing.T) {
	const n = 6
	const m = 40000
	voter := func(p Problem, seed uint64) (HeavyHitters, Voter) {
		hh, err := New(WithProblem(p), WithCandidates(n), WithEps(0.05), WithPhi(0.1),
			WithStreamLength(m), WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		return hh, hh.(Voter)
	}
	bHH, b := voter(BordaProblem, 8)
	mHH, mm := voter(MaximinProblem, 9)
	ta := NewVoteTally(n)
	g := NewMallows(10, IdentityRanking(n), 0.4)
	for i := 0; i < m; i++ {
		v := g.Next()
		if err := b.Vote(v); err != nil {
			t.Fatal(err)
		}
		if err := mm.Vote(v); err != nil {
			t.Fatal(err)
		}
		ta.Add(v)
	}
	bc, _ := b.Winner()
	_, bMax := ta.BordaWinner()
	if float64(bMax)-float64(ta.BordaScores()[bc]) > 0.05*float64(m)*n {
		t.Fatalf("Borda winner %d not an ε-winner", bc)
	}
	mc, _ := mm.Winner()
	_, mMax := ta.MaximinWinner()
	if float64(mMax)-float64(ta.MaximinScores()[mc]) > 0.05*float64(m) {
		t.Fatalf("maximin winner %d not an ε-winner", mc)
	}
	if lst := b.List(0.4); len(lst) == 0 {
		t.Fatal("Borda list empty at ϕ=0.4 (winner must clear it)")
	}
	if mHH.ModelBits() <= bHH.ModelBits() {
		t.Fatal("expected maximin sketch to cost more than Borda")
	}
}

func TestPublicConfigErrors(t *testing.T) {
	for name, opts := range map[string][]Option{
		"eps > phi": {WithEps(0.5), WithPhi(0.1), WithStreamLength(10), WithUniverse(10)},
		"zero eps": {WithProblem(MaxFrequencyProblem), WithEps(0),
			WithStreamLength(10), WithUniverse(10)},
		"zero universe": {WithProblem(MinFrequencyProblem), WithEps(0.1),
			WithStreamLength(10), WithUniverse(0)},
		"unknown algorithm": {WithEps(0.05), WithPhi(0.1), WithStreamLength(10),
			WithUniverse(10), WithAlgorithm(Algorithm(9))},
	} {
		if _, err := New(opts...); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := New(WithProblem(BordaProblem), WithCandidates(0), WithEps(0.1), WithPhi(0.2),
		WithStreamLength(10)); err == nil {
		t.Error("zero candidates accepted")
	}
}

func TestPublicDeterminism(t *testing.T) {
	st := GeneratePlantedStream(11, 50000, []float64{0.3}, 100, 10000, OrderShuffled)
	runOnce := func() []ItemEstimate {
		hh, err := New(WithEps(0.05), WithPhi(0.2), WithDelta(0.1), WithStreamLength(50000),
			WithUniverse(1<<20), WithSeed(42))
		if err != nil {
			t.Fatal(err)
		}
		if err := hh.InsertBatch(st); err != nil {
			t.Fatal(err)
		}
		return hh.Report()
	}
	a, b := runOnce(), runOnce()
	if len(a) != len(b) {
		t.Fatal("non-deterministic report length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("non-deterministic report")
		}
	}
}
