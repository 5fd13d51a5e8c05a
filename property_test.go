package l1hh

// Property-based and failure-injection tests over the public API. The
// quick properties assert *deterministic* invariants (output structure,
// serialization round trips, exact regimes); the probabilistic (ε,ϕ)
// guarantees are covered by the multi-seed tests in the internal
// packages.

import (
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/minimum"
	"repro/internal/rng"
)

// TestPropReportStructure: reports are sorted by decreasing estimate with
// unique items and non-negative frequencies ≤ (1+ε)·m.
func TestPropReportStructure(t *testing.T) {
	err := quick.Check(func(seed uint64, pick []uint16) bool {
		const m = 5000
		hh, err := buildSerial(config{
			Eps: 0.1, Phi: 0.25, Delta: 0.1,
			StreamLength: m, Universe: 1 << 16, Seed: seed,
		})
		if err != nil {
			return false
		}
		// Skewed stream: low item ids get high probability.
		for i := 0; i < m; i++ {
			var x Item
			if len(pick) > 0 {
				x = Item(pick[i%len(pick)]) % 64
			}
			if i%3 != 0 {
				x = Item(i % 4) // force a few heavy items
			}
			hh.Insert(x)
		}
		rep := hh.Report()
		seen := map[Item]bool{}
		for i, r := range rep {
			if r.F < 0 || r.F > (1+0.1)*m {
				return false
			}
			if seen[r.Item] {
				return false
			}
			seen[r.Item] = true
			if i > 0 && rep[i-1].F < r.F {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPropSerializationIdentity: marshal → unmarshal → continue produces
// bit-identical reports, for random streams and both engines.
func TestPropSerializationIdentity(t *testing.T) {
	err := quick.Check(func(seed uint64, algoRaw bool, xs []uint16) bool {
		algo := AlgorithmOptimal
		if algoRaw {
			algo = AlgorithmSimple
		}
		const m = 4000
		hh, err := buildSerial(config{
			Eps: 0.1, Phi: 0.3, Delta: 0.1,
			StreamLength: m, Universe: 1 << 16, Algorithm: algo, Seed: seed,
		})
		if err != nil {
			return false
		}
		stream := make([]Item, m)
		for i := range stream {
			if len(xs) > 0 {
				stream[i] = Item(xs[i%len(xs)]) % 256
			}
		}
		for _, x := range stream[:m/2] {
			hh.Insert(x)
		}
		blob, err := hh.MarshalBinary()
		if err != nil {
			return false
		}
		restored, err := unmarshalSerial(blob)
		if err != nil {
			return false
		}
		for _, x := range stream[m/2:] {
			hh.Insert(x)
			restored.Insert(x)
		}
		a, b := hh.Report(), restored.Report()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPropMinimumInUniverse: the ε-Minimum answer always names an item of
// the declared universe, whatever the stream.
func TestPropMinimumInUniverse(t *testing.T) {
	err := quick.Check(func(seed uint64, xs []uint16, nRaw uint8) bool {
		n := uint64(nRaw%30) + 2
		mn, err := minimum.New(rng.New(seed), minimum.Config{
			Eps: 0.2, Delta: 0.2, M: uint64(len(xs) + 1), N: n,
		})
		if err != nil {
			return false
		}
		for _, x := range xs {
			mn.Insert(uint64(x) % n)
		}
		r := mn.Report()
		return r.Item < n && r.F >= 0 && r.Branch >= 1 && r.Branch <= 4
	}, &quick.Config{MaxCount: 60})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPropBordaScoreIdentity: in the exact (p = 1) regime the Borda
// scores of all candidates sum to m·n(n−1)/2 — a conservation law of the
// scoring rule.
func TestPropBordaScoreIdentity(t *testing.T) {
	err := quick.Check(func(seed uint64, mRaw uint8) bool {
		n := 5
		m := int(mRaw%50) + 1
		b, err := newVoter(BordaProblem, n, 0.1, uint64(m), seed)
		if err != nil {
			return false
		}
		g := NewImpartialCulture(seed+1, n)
		for i := 0; i < m; i++ {
			if b.Vote(g.Next()) != nil {
				return false
			}
		}
		var sum float64
		for _, s := range b.Scores() {
			sum += s
		}
		want := float64(m) * float64(n*(n-1)) / 2
		return math.Abs(sum-want) < 1e-6
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPropMaximinBounded: maximin scores never exceed the vote count.
func TestPropMaximinBounded(t *testing.T) {
	err := quick.Check(func(seed uint64, mRaw uint8) bool {
		n := 4
		m := int(mRaw%40) + 1
		mm, err := newVoter(MaximinProblem, n, 0.2, uint64(m), seed)
		if err != nil {
			return false
		}
		g := NewImpartialCulture(seed+2, n)
		for i := 0; i < m; i++ {
			if mm.Vote(g.Next()) != nil {
				return false
			}
		}
		for _, s := range mm.Scores() {
			if s < 0 || s > float64(m)+1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Fatal(err)
	}
}

// --- failure injection ---

func TestEmptyStreamEverySolver(t *testing.T) {
	hh, err := buildSerial(config{
		Eps: 0.1, Phi: 0.3, Delta: 0.1, StreamLength: 10, Universe: 10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep := hh.Report(); len(rep) != 0 {
		t.Fatalf("empty HH report = %v", rep)
	}
	mx := newExtremes(t, MaxFrequencyProblem, 0.1, 10, 10, 1)
	if _, _, err := mx.MaxItem(); !errors.Is(err, ErrEmptyStream) {
		t.Fatalf("empty Maximum = %v, want ErrEmptyStream", err)
	}
	mn := newExtremes(t, MinFrequencyProblem, 0.1, 10, 4, 1)
	if _, _, err := mn.MinItem(); !errors.Is(err, ErrEmptyStream) {
		t.Fatalf("empty Minimum = %v, want ErrEmptyStream", err)
	}
}

func TestSingleItemUniverse(t *testing.T) {
	hh, err := buildSerial(config{
		Eps: 0.1, Phi: 0.9, Delta: 0.1, StreamLength: 100, Universe: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		hh.Insert(0)
	}
	rep := hh.Report()
	if len(rep) != 1 || rep[0].Item != 0 {
		t.Fatalf("single-universe report = %v", rep)
	}
}

func TestAllSameItem(t *testing.T) {
	mx := newExtremes(t, MaxFrequencyProblem, 0.05, 10000, 1<<20, 2)
	for i := 0; i < 10000; i++ {
		if err := mx.(HeavyHitters).Insert(777); err != nil {
			t.Fatal(err)
		}
	}
	est, _, err := mx.MaxItem()
	if err != nil || est.Item != 777 {
		t.Fatalf("constant stream max = %d (%v)", est.Item, err)
	}
	if math.Abs(est.F-10000) > 500 {
		t.Fatalf("constant stream estimate %v", est.F)
	}
}

func TestEpsJustBelowPhi(t *testing.T) {
	// The tightest legal gap: ϕ − ε barely positive.
	hh, err := buildSerial(config{
		Eps: 0.099999, Phi: 0.1, Delta: 0.1,
		StreamLength: 1000, Universe: 100, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		hh.Insert(Item(i % 5))
	}
	// Every item has frequency 0.2·m ≥ ϕ·m: all five must be reported.
	if rep := hh.Report(); len(rep) != 5 {
		t.Fatalf("report has %d items, want 5", len(rep))
	}
}

func TestSingleVoteElection(t *testing.T) {
	for _, tc := range []struct {
		problem Problem
		seed    uint64
		score   float64
	}{{BordaProblem, 4, 2}, {MaximinProblem, 5, 1}} {
		v, err := newVoter(tc.problem, 3, 0.1, 1, tc.seed)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Vote(Ranking{2, 0, 1}); err != nil {
			t.Fatal(err)
		}
		if cand, score := v.Winner(); cand != 2 || score != tc.score {
			t.Fatalf("single-vote %s winner (%d, %v)", tc.problem, cand, score)
		}
	}
}

func TestUnknownLengthNotSerializable(t *testing.T) {
	hh, err := buildSerial(config{
		Eps: 0.1, Phi: 0.3, Delta: 0.1, Universe: 100, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hh.MarshalBinary(); err == nil {
		t.Fatal("unknown-length solver claimed to serialize")
	}
}

func TestUnmarshalGarbage(t *testing.T) {
	for _, blob := range [][]byte{nil, {}, {0}, {99, 1, 2, 3}, {1}, {2}} {
		if _, err := unmarshalSerial(blob); err == nil {
			t.Fatalf("garbage %v accepted", blob)
		}
	}
}

// TestReportIsIdempotent: calling Report twice returns the same answer
// and does not disturb the sketch.
func TestReportIsIdempotent(t *testing.T) {
	hh, _ := buildSerial(config{
		Eps: 0.05, Phi: 0.2, Delta: 0.1, StreamLength: 20000, Universe: 1 << 16, Seed: 7,
	})
	st := GeneratePlantedStream(8, 20000, []float64{0.4}, 100, 1000, OrderShuffled)
	for _, x := range st {
		hh.Insert(x)
	}
	a := hh.Report()
	b := hh.Report()
	if len(a) != len(b) {
		t.Fatal("report not idempotent")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("report not idempotent")
		}
	}
	sort.Slice(a, func(i, j int) bool { return a[i].Item < a[j].Item })
}

// newVoter builds a known-length Borda or maximin engine over n
// candidates through New (ϕ, the List threshold, is irrelevant here).
func newVoter(p Problem, n int, eps float64, m, seed uint64) (Voter, error) {
	hh, err := New(WithProblem(p), WithCandidates(n), WithEps(eps), WithPhi(0.5),
		WithDelta(0.1), WithStreamLength(m), WithSeed(seed))
	if err != nil {
		return nil, err
	}
	return hh.(Voter), nil
}

// newExtremes builds a known-length ε-Maximum or ε-Minimum engine over
// a universe of n ids through New.
func newExtremes(t *testing.T, p Problem, eps float64, m, n, seed uint64) Extremes {
	t.Helper()
	hh, err := New(WithProblem(p), WithEps(eps), WithDelta(0.1),
		WithStreamLength(m), WithUniverse(n), WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	return hh.(Extremes)
}
