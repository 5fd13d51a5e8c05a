package l1hh

// Tests for the problem-keyed front door: the builder table's
// construction matrix and option vocabularies, the capability
// interfaces (Voter / Extremes / PointQuerier), checkpoint round-trips
// for the problem tags, the conformance of the sampled voting engines
// against exact tallies, and the pool's treatment of problem tenants.

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// votingProblemOpts is a valid Borda/maximin option set for the tests.
func votingProblemOpts(p Problem, m int) []Option {
	return []Option{
		WithProblem(p), WithCandidates(6),
		WithEps(0.05), WithPhi(0.2), WithDelta(0.05),
		WithStreamLength(uint64(m)), WithSeed(7),
	}
}

// extremesProblemOpts is a valid min/max-frequency option set.
func extremesProblemOpts(p Problem, m int) []Option {
	return []Option{
		WithProblem(p), WithEps(0.05), WithDelta(0.05),
		WithStreamLength(uint64(m)), WithUniverse(64), WithSeed(7),
	}
}

// TestExtremesBoundQuotedAtConfiguredM: a known-length extremes sampler
// is tuned for the configured m, so a mid-stream query must quote ε·m,
// not the smaller (and unsound) ε·len.
func TestExtremesBoundQuotedAtConfiguredM(t *testing.T) {
	for _, p := range []Problem{MinFrequencyProblem, MaxFrequencyProblem} {
		hh, err := New(extremesProblemOpts(p, 10_000)...)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			if err := hh.Insert(Item(i % 8)); err != nil {
				t.Fatal(err)
			}
		}
		ex := hh.(Extremes)
		_, bound, err := ex.MinItem()
		if p == MaxFrequencyProblem {
			_, bound, err = ex.MaxItem()
		}
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if want := 0.05 * 10_000; bound != want {
			t.Fatalf("%v bound after 100 of 10000 items = %v, want ε·m = %v", p, bound, want)
		}
	}
}

func TestProblemString(t *testing.T) {
	for p, want := range map[Problem]string{
		HeavyHittersProblem: "heavy-hitters",
		BordaProblem:        "borda",
		MaximinProblem:      "maximin",
		MinFrequencyProblem: "min-frequency",
		MaxFrequencyProblem: "max-frequency",
	} {
		if got := p.String(); got != want {
			t.Errorf("Problem(%d).String() = %q, want %q", p, got, want)
		}
	}
	if got := Problem(99).String(); !strings.Contains(got, "99") {
		t.Errorf("out-of-range Problem.String() = %q, want the raw value named", got)
	}
}

// TestProblemCapabilityMatrix: which interfaces each problem's engine
// answers to is the API contract — assertions succeed exactly when the
// underlying algorithm makes the answer sound.
func TestProblemCapabilityMatrix(t *testing.T) {
	const m = 1000
	cases := []struct {
		name                           string
		opts                           []Option
		voter, extremes, point, merger bool
	}{
		{name: "heavy-hitters serial", point: true, merger: true,
			opts: []Option{WithEps(0.05), WithPhi(0.2), WithStreamLength(m), WithUniverse(1 << 20), WithSeed(7)}},
		{name: "borda", voter: true, merger: true,
			opts: votingProblemOpts(BordaProblem, m)},
		{name: "maximin", voter: true,
			opts: votingProblemOpts(MaximinProblem, m)},
		{name: "min-frequency", extremes: true,
			opts: extremesProblemOpts(MinFrequencyProblem, m)},
		{name: "max-frequency", extremes: true,
			opts: extremesProblemOpts(MaxFrequencyProblem, m)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hh, err := New(tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer hh.Close()
			if _, ok := hh.(Voter); ok != tc.voter {
				t.Errorf("Voter = %v, want %v", ok, tc.voter)
			}
			if _, ok := hh.(Extremes); ok != tc.extremes {
				t.Errorf("Extremes = %v, want %v", ok, tc.extremes)
			}
			if _, ok := hh.(PointQuerier); ok != tc.point {
				t.Errorf("PointQuerier = %v, want %v", ok, tc.point)
			}
			if _, ok := hh.(Merger); ok != tc.merger {
				t.Errorf("Merger = %v, want %v", ok, tc.merger)
			}
			if _, ok := hh.(Sharder); ok {
				t.Error("unexpected Sharder capability")
			}
		})
	}
}

// TestProblemOptionVocabulary: each problem's validator rejects options
// outside its vocabulary with an error that names the problem and the
// sound alternatives.
func TestProblemOptionVocabulary(t *testing.T) {
	base := func(p Problem) []Option {
		if p == BordaProblem || p == MaximinProblem {
			return votingProblemOpts(p, 1000)
		}
		return extremesProblemOpts(p, 1000)
	}
	cases := []struct {
		name string
		opts []Option
		want string
	}{
		{"voting without candidates", []Option{
			WithProblem(BordaProblem), WithEps(0.05), WithPhi(0.2), WithStreamLength(1000),
		}, "needs WithCandidates"},
		{"voting with shards", append(base(BordaProblem), WithShards(2)), "heavy-hitters machinery"},
		{"voting with universe", append(base(MaximinProblem), WithUniverse(64)), "heavy-hitters machinery"},
		{"voting with window", append(base(BordaProblem), WithCountWindow(64, 4)), "heavy-hitters machinery"},
		{"extremes with phi", append(base(MinFrequencyProblem), WithPhi(0.2)), "no heaviness threshold"},
		{"extremes with candidates", append(base(MaxFrequencyProblem), WithCandidates(4)), "heavy-hitters machinery"},
		{"extremes with shards", append(base(MinFrequencyProblem), WithShards(2)), "heavy-hitters machinery"},
		{"heavy hitters with candidates", []Option{
			WithEps(0.05), WithPhi(0.2), WithStreamLength(1000), WithCandidates(4),
		}, "voting problems"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.opts...)
			if err == nil {
				t.Fatal("New accepted an out-of-vocabulary option set")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestVotingConformance pins the sampled voting engines against exact
// tallies of the same election: winners agree and every score lands
// within the problem's additive bound (ε·m·n for Borda, ε·m for
// maximin). This is the public-surface twin of the internal/voting
// accuracy suite.
func TestVotingConformance(t *testing.T) {
	const n, m = 6, 5000
	center := make(Ranking, n)
	for i := range center {
		center[i] = uint32(i)
	}
	for _, tc := range []struct {
		problem Problem
		scale   float64
		exact   func(*VoteTally) []uint64
		winner  func(*VoteTally) (int, uint64)
	}{
		{BordaProblem, float64(m) * n, (*VoteTally).BordaScores, (*VoteTally).BordaWinner},
		{MaximinProblem, float64(m), (*VoteTally).MaximinScores, (*VoteTally).MaximinWinner},
	} {
		t.Run(tc.problem.String(), func(t *testing.T) {
			hh, err := New(
				WithProblem(tc.problem), WithCandidates(n),
				WithEps(0.05), WithPhi(0.2), WithDelta(0.05),
				WithStreamLength(m), WithSeed(11))
			if err != nil {
				t.Fatal(err)
			}
			defer hh.Close()
			v := hh.(Voter)
			tally := NewVoteTally(n)
			gen := NewMallows(99, center, 0.5)
			for i := 0; i < m; i++ {
				rk := gen.Next()
				tally.Add(rk)
				if err := v.Vote(rk); err != nil {
					t.Fatal(err)
				}
			}
			wantWinner, _ := tc.winner(tally)
			if got, _ := v.Winner(); got != wantWinner {
				t.Errorf("winner = %d, exact tally says %d", got, wantWinner)
			}
			exact := tc.exact(tally)
			for c, est := range v.Scores() {
				if e := math.Abs(est-float64(exact[c])) / tc.scale; e > 0.05 {
					t.Errorf("candidate %d score error %.4f exceeds ε", c, e)
				}
			}
			if hh.Len() != m {
				t.Errorf("Len = %d, want %d ballots", hh.Len(), m)
			}
		})
	}
}

// TestProblemRoundTrip: every problem engine checkpoints through
// MarshalBinary and resumes through the universal Unmarshal with its
// capabilities, parameters and answer intact — and keeps counting.
func TestProblemRoundTrip(t *testing.T) {
	const m = 1000
	t.Run("voting", func(t *testing.T) {
		for _, p := range []Problem{BordaProblem, MaximinProblem} {
			hh, err := New(votingProblemOpts(p, m)...)
			if err != nil {
				t.Fatal(err)
			}
			v := hh.(Voter)
			for i := 0; i < 600; i++ {
				if err := v.Vote(Ranking{0, 1, 2, 3, 4, 5}); err != nil {
					t.Fatal(err)
				}
			}
			blob, err := hh.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			hh.Close()
			back, err := Unmarshal(blob)
			if err != nil {
				t.Fatalf("%s round trip: %v", p, err)
			}
			defer back.Close()
			bv, ok := back.(Voter)
			if !ok {
				t.Fatalf("%s restore lost the Voter capability", p)
			}
			if back.Len() != 600 || bv.Candidates() != 6 {
				t.Fatalf("%s restore: Len=%d Candidates=%d", p, back.Len(), bv.Candidates())
			}
			if c, _ := bv.Winner(); c != 0 {
				t.Fatalf("%s restore winner = %d, want the unanimous 0", p, c)
			}
			if err := bv.Vote(Ranking{5, 4, 3, 2, 1, 0}); err != nil {
				t.Fatalf("%s restore refused a ballot: %v", p, err)
			}
		}
	})
	t.Run("extremes", func(t *testing.T) {
		for _, p := range []Problem{MinFrequencyProblem, MaxFrequencyProblem} {
			hh, err := New(extremesProblemOpts(p, m)...)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 600; i++ {
				if err := hh.Insert(uint64(i % 8)); err != nil {
					t.Fatal(err)
				}
			}
			blob, err := hh.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			hh.Close()
			back, err := Unmarshal(blob)
			if err != nil {
				t.Fatalf("%s round trip: %v", p, err)
			}
			defer back.Close()
			ex, ok := back.(Extremes)
			if !ok {
				t.Fatalf("%s restore lost the Extremes capability", p)
			}
			q := ex.MinItem
			if p == MaxFrequencyProblem {
				q = ex.MaxItem
			}
			if _, _, err := q(); err != nil {
				t.Fatalf("%s restore query: %v", p, err)
			}
			if back.Len() != 600 {
				t.Fatalf("%s restore Len = %d, want 600", p, back.Len())
			}
			if err := back.Insert(3); err != nil {
				t.Fatalf("%s restore refused an item: %v", p, err)
			}
		}
	})
	t.Run("runtime options rejected", func(t *testing.T) {
		hh, err := New(votingProblemOpts(BordaProblem, m)...)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := hh.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		hh.Close()
		if _, err := Unmarshal(blob, WithQueueDepth(8)); err == nil ||
			!strings.Contains(err.Error(), "problem-engine checkpoint") {
			t.Errorf("Unmarshal(problem blob, WithQueueDepth) = %v, want a problem-engine rejection", err)
		}
	})
}

// TestProblemCurrencySentinels: the two redirect sentinels route a
// caller holding the wrong currency to the right method.
func TestProblemCurrencySentinels(t *testing.T) {
	hh, err := New(votingProblemOpts(BordaProblem, 1000)...)
	if err != nil {
		t.Fatal(err)
	}
	defer hh.Close()
	if err := hh.Insert(7); !errors.Is(err, ErrNotItems) {
		t.Errorf("Insert on a voter = %v, want ErrNotItems", err)
	}
	if err := hh.InsertBatch([]Item{1, 2}); !errors.Is(err, ErrNotItems) {
		t.Errorf("InsertBatch on a voter = %v, want ErrNotItems", err)
	}
	v := hh.(Voter)
	if err := v.Vote(Ranking{0, 0, 1, 2, 3, 4}); err == nil {
		t.Error("Vote accepted a non-permutation ballot")
	}
}

// TestPointQuerierMatrix: Estimate is exposed exactly where the §3
// per-item bound is sound — known-length serial and sharded engines —
// and the estimate lands within ε·m for a planted heavy item.
func TestPointQuerierMatrix(t *testing.T) {
	const m = 4000
	build := func(extra ...Option) HeavyHitters {
		t.Helper()
		hh, err := New(append([]Option{
			WithEps(0.05), WithPhi(0.2), WithUniverse(1 << 20), WithSeed(7),
		}, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		return hh
	}
	known := WithStreamLength(m)
	for _, tc := range []struct {
		name  string
		extra []Option
		want  bool
	}{
		{"serial", []Option{known}, true},
		{"sharded", []Option{known, WithShards(2)}, true},
		// Unknown-length engines answer no point query: the staggered
		// Theorem 7 instances forget prefix mass.
		{"serial unknown-m", nil, false},
		{"sharded unknown-m", []Option{WithShards(2)}, false},
	} {
		hh := build(tc.extra...)
		pq, ok := hh.(PointQuerier)
		if ok != tc.want {
			t.Fatalf("%s: PointQuerier = %v, want %v", tc.name, ok, tc.want)
		}
		if !ok {
			hh.Close()
			continue
		}
		// Alternate items 0 and 7, so 7 owns exactly half the stream.
		for i := 0; i < 2000; i++ {
			if err := hh.Insert(uint64(i % 2 * 7)); err != nil {
				t.Fatal(err)
			}
		}
		if est := pq.Estimate(7); math.Abs(est-1000) > 0.05*2000 {
			t.Errorf("%s: Estimate(7) = %g, want 1000 ± ε·m", tc.name, est)
		}
		hh.Close()
	}
	// Windowed engines do not answer point queries (bucket residuals do
	// not compose into a per-item bound).
	win := build(known, WithCountWindow(256, 4))
	if _, ok := win.(PointQuerier); ok {
		t.Error("windowed engine unexpectedly answers point queries")
	}
	win.Close()
}

// TestPoolProblemTenants: voting and extremes tenants live in the same
// pool as heavy-hitters tenants, spill and revive under budget
// pressure with their answers intact, and refuse the wrong currency.
func TestPoolProblemTenants(t *testing.T) {
	// Pool defaults must stand alone as a valid configuration, so the
	// hh pool carries ϕ (which the voting vocabulary also accepts) and
	// the extremes pool carries its own problem in the defaults — the
	// same shape hhd's -problem mode uses.
	p, err := NewPool(WithTenantDefaults(
		WithEps(0.05), WithPhi(0.2), WithStreamLength(4000), WithSeed(7)))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	if err := p.SetTenantOptions("poll",
		WithProblem(BordaProblem), WithCandidates(4)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if err := p.Vote("poll", Ranking{2, 0, 1, 3}); err != nil {
			t.Fatal(err)
		}
		if err := p.Insert("counts", 7); err != nil {
			t.Fatal(err)
		}
	}

	// Wrong currency in both directions.
	if err := p.Vote("counts", Ranking{0, 1, 2, 3}); !errors.Is(err, ErrNotRankings) {
		t.Errorf("Vote on a heavy-hitters tenant = %v, want ErrNotRankings", err)
	}
	if err := p.Insert("poll", 7); !errors.Is(err, ErrNotItems) {
		t.Errorf("Insert on a voting tenant = %v, want ErrNotItems", err)
	}

	// Voting tenants are spillable: force the poll out, then revive it
	// through a capability view.
	if err := p.Evict("poll"); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.TenantsSpilled != 1 {
		t.Fatalf("TenantsSpilled = %d, want 1", st.TenantsSpilled)
	}
	err = p.View("poll", func(hh HeavyHitters) error {
		v, ok := hh.(Voter)
		if !ok {
			return errors.New("revived tenant lost the Voter capability")
		}
		if c, _ := v.Winner(); c != 2 {
			return errors.New("revived winner is not the unanimous candidate 2")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.Revives < 1 {
		t.Fatalf("Revives = %d, want ≥ 1", st.Revives)
	}
	// And a revived voter keeps counting.
	if err := p.Vote("poll", Ranking{2, 0, 1, 3}); err != nil {
		t.Fatal(err)
	}

	// The extremes twin: a pool whose defaults are the problem options,
	// the shape hhd -problem minfreq -tenants N runs.
	ep, err := NewPool(WithTenantDefaults(
		WithProblem(MinFrequencyProblem), WithEps(0.05),
		WithStreamLength(4000), WithUniverse(64), WithSeed(7)))
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	for i := 0; i < 300; i++ {
		if err := ep.Insert("rare", uint64(i%8)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ep.Evict("rare"); err != nil {
		t.Fatal(err)
	}
	err = ep.View("rare", func(hh HeavyHitters) error {
		ex, ok := hh.(Extremes)
		if !ok {
			return errors.New("revived tenant lost the Extremes capability")
		}
		_, _, err := ex.MinItem()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
