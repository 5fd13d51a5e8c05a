package unknown

import (
	"math"
	"testing"

	"repro/internal/exact"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/voting"
)

func TestListHHMatchesKnownLengthGuarantees(t *testing.T) {
	// ε = 0.1 → r = 10; milestones at 100, 1000, 10000, … A 120000-item
	// stream crosses several, exercising spawn/retire.
	const m = 120000
	const eps, phi = 0.1, 0.25
	failures := 0
	const trials = 4
	for seed := uint64(0); seed < trials; seed++ {
		st := stream.PlantedStream(rng.New(seed), m,
			[]float64{0.4, 0.3, 0.05}, 1000, 50000, stream.Shuffled)
		l, err := NewListHH(rng.New(100+seed), eps, phi, 0.2, 1<<32)
		if err != nil {
			t.Fatal(err)
		}
		ex := exact.New()
		for _, x := range st {
			l.Insert(x)
			ex.Insert(x)
		}
		if err := exact.Audit(ex, l.Report(), eps, phi).Err(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			failures++
		}
	}
	if failures > 1 {
		t.Fatalf("unknown-length ListHH failed %d/%d runs", failures, trials)
	}
}

func TestListHHShortStreamExact(t *testing.T) {
	// A stream far below the first milestone never respawns and is exact.
	l, err := NewListHH(rng.New(1), 0.1, 0.3, 0.1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		l.Insert(5)
	}
	for i := 0; i < 20; i++ {
		l.Insert(uint64(i + 10))
	}
	rep := l.Report()
	if len(rep) != 1 || rep[0].Item != 5 {
		t.Fatalf("report = %v, want only item 5", rep)
	}
}

func TestListHHRejectsLargeEps(t *testing.T) {
	if _, err := NewListHH(rng.New(1), 0.7, 0.8, 0.1, 10); err == nil {
		t.Fatal("eps > 1/2 accepted")
	}
}

func TestSchedulerLifecycle(t *testing.T) {
	// Drive far enough to cross ≥ 2 milestones and verify at most two
	// instances are ever live, with the guess sequence growing.
	l, err := NewListHH(rng.New(2), 0.2, 0.4, 0.2, 1000) // r = 5: milestones 25, 125, 625, …
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100000; i++ {
		l.Insert(uint64(i % 3))
	}
	s := l.sched
	if !s.haveNew {
		t.Fatal("no respawn after 100k items with r=5")
	}
	if s.mileIdx <= 2 {
		t.Fatalf("milestone index did not advance: %d", s.mileIdx)
	}
	if s.Offered() != 100000 {
		t.Fatalf("offered = %d", s.Offered())
	}
}

func TestMaximumUnknownLength(t *testing.T) {
	const m = 100000
	failures := 0
	const trials = 4
	for seed := uint64(0); seed < trials; seed++ {
		st := stream.PlantedStream(rng.New(seed), m,
			[]float64{0.35, 0.2}, 1000, 50000, stream.Shuffled)
		u, err := NewMaximum(rng.New(300+seed), 0.1, 0.2, 1<<32)
		if err != nil {
			t.Fatal(err)
		}
		ex := exact.New()
		for _, x := range st {
			u.Insert(x)
			ex.Insert(x)
		}
		item, f, ok := u.Report()
		if !ok {
			t.Fatal("no report")
		}
		_, trueMax, _ := ex.Max()
		if math.Abs(f-float64(trueMax)) > 0.1*float64(m) ||
			float64(trueMax)-float64(ex.Freq(item)) > 0.1*float64(m) {
			failures++
		}
	}
	if failures > 1 {
		t.Fatalf("unknown-length Maximum failed %d/%d runs", failures, trials)
	}
}

func TestMinimumUnknownLength(t *testing.T) {
	const m = 80000
	const n = 8
	u, err := NewMinimum(rng.New(3), 0.1, 0.1, n)
	if err != nil {
		t.Fatal(err)
	}
	ex := exact.New()
	for i := 0; i < m; i++ {
		x := uint64(i % (n - 1)) // id 7 never occurs
		u.Insert(x)
		ex.Insert(x)
	}
	r := u.Report()
	if float64(ex.Freq(r.Item)) > 0.1*float64(m) {
		t.Fatalf("reported item %d has f=%d, not ε-minimal", r.Item, ex.Freq(r.Item))
	}
	if r.F > 0.1*float64(m) {
		t.Fatalf("estimate %v not within ε·m of the 0 minimum", r.F)
	}
}

func TestBordaUnknownLength(t *testing.T) {
	const n = 6
	const m = 50000
	u, err := NewBorda(rng.New(4), n, 0.05, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	ta := voting.NewTally(n)
	g := voting.NewMallows(rng.New(5), voting.Identity(n), 0.5)
	for i := 0; i < m; i++ {
		v := g.Next()
		u.Insert(v)
		ta.Add(v)
	}
	cand, _ := u.Max()
	_, trueMax := ta.BordaWinner()
	if float64(trueMax)-float64(ta.BordaScores()[cand]) > 0.05*float64(m)*float64(n) {
		t.Fatalf("candidate %d is not an ε-Borda winner", cand)
	}
}

func TestMaximinUnknownLength(t *testing.T) {
	const n = 5
	const m = 40000
	u, err := NewMaximin(rng.New(6), n, 0.1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	ta := voting.NewTally(n)
	g := voting.NewMallows(rng.New(7), voting.Identity(n), 0.4)
	for i := 0; i < m; i++ {
		v := g.Next()
		u.Insert(v)
		ta.Add(v)
	}
	cand, _ := u.Max()
	_, trueMax := ta.MaximinWinner()
	if float64(trueMax)-float64(ta.MaximinScores()[cand]) > 0.1*float64(m) {
		t.Fatalf("candidate %d is not an ε-maximin winner", cand)
	}
}

func TestModelBitsIncludeMorris(t *testing.T) {
	l, _ := NewListHH(rng.New(8), 0.1, 0.3, 0.1, 1000)
	for i := 0; i < 50000; i++ {
		l.Insert(uint64(i % 10))
	}
	if l.ModelBits() <= 0 {
		t.Fatal("ModelBits must be positive")
	}
	if l.Len() != 50000 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestGuessFor(t *testing.T) {
	if guessFor(10, 3) != 1000 {
		t.Fatalf("guessFor(10,3) = %d", guessFor(10, 3))
	}
	if guessFor(10, 30) != maxGuess {
		t.Fatal("huge guesses must cap")
	}
	if guessFor(0.5, 3) != 1 {
		t.Fatal("sub-1 guesses must floor at 1")
	}
}
