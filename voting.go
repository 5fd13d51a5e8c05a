package l1hh

import (
	"repro/internal/rng"
	"repro/internal/voting"
)

// Ranking is one vote: a permutation of the candidate ids [0, n), most
// preferred first.
type Ranking = voting.Ranking

// ScoredCandidate pairs a candidate with an estimated score.
type ScoredCandidate = voting.ScoredCandidate

// VoteTally is the exact Borda/plurality/pairwise oracle, exported for
// verification and examples.
type VoteTally = voting.Tally

// NewVoteTally returns an exact tally over n candidates.
func NewVoteTally(n int) *VoteTally { return voting.NewTally(n) }

// IdentityRanking returns the ranking 0 ≻ 1 ≻ … ≻ n−1.
func IdentityRanking(n int) Ranking { return voting.Identity(n) }

// VoteGenerator produces one vote per call.
type VoteGenerator = voting.Generator

// NewImpartialCulture returns a uniform vote generator over n candidates.
func NewImpartialCulture(seed uint64, n int) VoteGenerator {
	return voting.NewImpartialCulture(rng.New(seed), n)
}

// NewMallows returns a Mallows(q) vote generator around center; small q
// concentrates votes near the center ranking.
func NewMallows(seed uint64, center Ranking, q float64) VoteGenerator {
	return voting.NewMallows(rng.New(seed), center, q)
}

// NewPlackettLuce returns a Plackett-Luce vote generator with the given
// positive candidate weights.
func NewPlackettLuce(seed uint64, weights []float64) VoteGenerator {
	return voting.NewPlackettLuce(rng.New(seed), weights)
}
