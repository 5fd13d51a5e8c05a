// Package merge defines the error contract of the distributed tier:
// every summary in this repository that can be combined across nodes —
// the Misra-Gries tables inside the paper's solvers, the solvers
// themselves, the Borda tally and the sharded engine containers —
// reports incompatibility through the one sentinel defined here.
//
// Combination rules (DESIGN.md §7 has the error accounting):
//
//   - Counter summaries (the solvers' Misra-Gries tables) merge with
//     additive error accounting, per the mergeability results of
//     Agarwal et al.: the merged summary keeps the m/(k+1)-style
//     deterministic bound against the combined stream length
//     m = m₁ + m₂.
//   - The paper's sampling-based solvers fold state between same-seed
//     instances: identical seeds mean identical hash functions and
//     identical sampling rates, so the union of the two nodes' samples is
//     a valid sample of the concatenated stream and the tables combine by
//     the counter rule above.
//   - Sharded containers merge shard-by-shard when the partition (shard
//     count + hash seed) matches, so every id's state folds into the
//     shard that owns it on both nodes.
//
// Merging is directional — the argument folds into the receiver and is
// left untouched — and commutative in the reported output: folding A
// into B and B into A yield identical reports (the receiver keeps only
// non-semantic state such as sampler gap position).
package merge

import (
	"errors"
	"fmt"
)

// ErrIncompatible is the sentinel every combination rule wraps when two
// summaries cannot be merged (different parameters, dimensions, seeds or
// partitions). Callers distinguish it from decode errors with errors.Is —
// the hhd daemon, for instance, maps it to 409 Conflict rather than
// 400 Bad Request.
var ErrIncompatible = errors.New("merge: incompatible summaries")

// Incompatiblef returns an error describing why two summaries cannot be
// merged, wrapping ErrIncompatible so callers can classify it.
func Incompatiblef(format string, args ...any) error {
	return fmt.Errorf("%s: %w", fmt.Sprintf(format, args...), ErrIncompatible)
}
