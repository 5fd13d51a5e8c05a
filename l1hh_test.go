package l1hh

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/exact"
)

// TestPublicListHeavyHittersBothAlgorithms holds both algorithms to the
// (ε,ϕ) guarantee over universes from 2¹⁶ to 2⁶², with the noise drawn
// from [1000, u/2). At every size a checkpoint must restore to the same
// state, and the model bits may grow only through the id-bearing terms:
// they stay below 1.5× their value at u = 2¹⁶.
func TestPublicListHeavyHittersBothAlgorithms(t *testing.T) {
	const m = 300000
	for _, algo := range []Algorithm{AlgorithmOptimal, AlgorithmSimple} {
		t.Run(fmt.Sprintf("algo=%d", algo), func(t *testing.T) {
			var bits16 int64
			for _, lg := range []int{16, 32, 48, 62} {
				u := uint64(1) << lg
				st := GeneratePlantedStream(1, m, []float64{0.2, 0.12, 0.02}, 1000, u/2, OrderShuffled)
				ex := exact.New()
				for _, x := range st {
					ex.Insert(x)
				}
				hh, err := New(WithEps(0.05), WithPhi(0.1), WithDelta(0.1),
					WithStreamLength(m), WithUniverse(u), WithAlgorithm(algo), WithSeed(7))
				if err != nil {
					t.Fatal(err)
				}
				if err := hh.InsertBatch(st); err != nil {
					t.Fatal(err)
				}
				rep := hh.Report()
				got := map[Item]float64{}
				for _, r := range rep {
					got[r.Item] = r.F
				}
				for _, heavy := range []Item{0, 1} {
					if _, ok := got[heavy]; !ok {
						t.Fatalf("u=2^%d: heavy item %d missing", lg, heavy)
					}
				}
				if _, ok := got[2]; ok {
					t.Fatalf("u=2^%d: light item 2 reported", lg)
				}
				for x, f := range got {
					if math.Abs(f-float64(ex.Freq(x))) > 0.05*m {
						t.Fatalf("u=2^%d: item %d estimate %v vs %d", lg, x, f, ex.Freq(x))
					}
				}
				bits := hh.ModelBits()
				if bits <= 0 || hh.Len() != m {
					t.Fatalf("u=2^%d: bits=%d len=%d", lg, bits, hh.Len())
				}
				if lg == 16 {
					bits16 = bits
				} else if float64(bits) >= 1.5*float64(bits16) {
					t.Fatalf("u=2^%d: %d model bits, 1.5× or more the %d at u=2^16", lg, bits, bits16)
				}

				blob, err := hh.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				back, err := Unmarshal(blob)
				if err != nil {
					t.Fatalf("u=2^%d: %v", lg, err)
				}
				again, err := back.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again, blob) || !slices.Equal(back.Report(), rep) || back.ModelBits() != bits {
					t.Fatalf("u=2^%d: the restored solver differs from the checkpointed one", lg)
				}
			}
		})
	}
}

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
