// Polling: streaming election winners under three voting rules — the
// paper's rank-aggregation motivation (§1.2).
//
// An online poll receives a stream of ballots, each a full ranking of the
// candidates. At any moment the operator wants the current plurality,
// Borda and maximin winners without storing the ballots. Plurality is the
// ε-Maximum problem on first-place votes; Borda and maximin use the
// Theorem 5 / Theorem 6 sketches. All three come from l1hh.New with
// WithProblem and answer through the Extremes and Voter capabilities.
//
//	go run ./examples/polling
package main

import (
	"fmt"
	"log"

	l1hh "repro"
)

func main() {
	candidates := []string{"Asha", "Bruno", "Chen", "Dara", "Eiji"}
	n := len(candidates)
	const ballots = 200_000
	const eps = 0.02

	// The electorate leans toward Chen ≻ Asha ≻ … with Mallows noise, so
	// different rules can disagree on runners-up while agreeing on top.
	truth := l1hh.Ranking{2, 0, 1, 3, 4}
	gen := l1hh.NewMallows(11, truth, 0.55)

	plurality, err := l1hh.New(l1hh.WithProblem(l1hh.MaxFrequencyProblem),
		l1hh.WithEps(eps), l1hh.WithDelta(0.05),
		l1hh.WithStreamLength(ballots), l1hh.WithUniverse(uint64(n)), l1hh.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	borda := newVoter(l1hh.BordaProblem, n, eps, ballots, 2)
	maximin := newVoter(l1hh.MaximinProblem, n, eps, ballots, 3)

	tally := l1hh.NewVoteTally(n) // exact, for the comparison printout

	for i := 0; i < ballots; i++ {
		v := gen.Next()
		if err := plurality.Insert(uint64(v[0])); err != nil { // first-place vote stream
			log.Fatal(err)
		}
		for _, voter := range []l1hh.Voter{borda, maximin} {
			if err := voter.Vote(v); err != nil {
				log.Fatal(err)
			}
		}
		tally.Add(v)
	}

	fmt.Printf("ballots: %d   candidates: %v\n\n", ballots, candidates)

	top, _, err := plurality.(l1hh.Extremes).MaxItem()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plurality winner : %-6s (≈%.0f first-place votes; sketch %d bits)\n",
		candidates[top.Item], top.F, plurality.ModelBits())

	bCand, bScore := borda.Winner()
	fmt.Printf("Borda winner     : %-6s (score ≈%.0f; sketch %d bits)\n",
		candidates[bCand], bScore, borda.(l1hh.HeavyHitters).ModelBits())

	mCand, mScore := maximin.Winner()
	fmt.Printf("maximin winner   : %-6s (score ≈%.0f; sketch %d bits)\n",
		candidates[mCand], mScore, maximin.(l1hh.HeavyHitters).ModelBits())

	fmt.Println("\nexact scores for reference:")
	bs, ms, ps := tally.BordaScores(), tally.MaximinScores(), tally.PluralityScores()
	fmt.Println("candidate   plurality      Borda    maximin")
	for c := 0; c < n; c++ {
		fmt.Printf("%-9s  %10d  %9d  %9d\n", candidates[c], ps[c], bs[c], ms[c])
	}
	fmt.Println("\nnote the maximin sketch costs far more than Borda — the paper's")
	fmt.Println("Theorem 6 vs Theorem 5 separation, visible in the bit counts above.")
}

// newVoter builds a Theorem 5 (Borda) or Theorem 6 (maximin) sketch over
// n candidates for a poll of the given number of ballots. ϕ is the
// (ε,ϕ)-List threshold, which the winner query does not use.
func newVoter(problem l1hh.Problem, n int, eps float64, ballots uint64, seed uint64) l1hh.Voter {
	hh, err := l1hh.New(l1hh.WithProblem(problem), l1hh.WithCandidates(n),
		l1hh.WithEps(eps), l1hh.WithPhi(0.5),
		l1hh.WithStreamLength(ballots), l1hh.WithSeed(seed))
	if err != nil {
		log.Fatal(err)
	}
	return hh.(l1hh.Voter)
}
