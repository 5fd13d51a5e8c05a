package l1hh

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/merge"
	"repro/internal/shard"
)

// Distributed merge tier: the engine half of the Merger capability.
//
// A fleet of ingest nodes, each running a solver built from the SAME
// options (WithSeed included and, for sharded solvers, the same
// WithShards), can each consume a slice of the global stream and later
// be combined into one summary whose Report carries the serial solver's
// (ε,ϕ) guarantees against the concatenated stream. Identical seeds make the
// nodes share every random choice — sampling rates, hash functions,
// shard routing — which is what lets their tables fold; DESIGN.md §7
// gives the per-table combination rules and the error accounting under
// union. Configure every node with the GLOBAL expected stream length: the
// sampling rate is derived from it, so the union of the nodes' samples
// matches a serial run over the whole stream.
//
// Incompatibility (different parameters, seeds, or partitions) is
// reported with an error wrapping ErrIncompatibleMerge and leaves the
// receiver unchanged.

// ErrIncompatibleMerge is returned (wrapped) when two summaries cannot
// be merged; test with errors.Is.
var ErrIncompatibleMerge = merge.ErrIncompatible

// tagKinds names the container kind behind each checkpoint tag, for
// the mismatch errors of checkMergeTag; "" marks an unassigned tag.
var tagKinds = [...]string{
	tagOptimal: "serial", tagSimple: "serial",
	tagSharded: "sharded", tagWindowed: "windowed", tagShardedWindowed: "sharded windowed",
	tagPool: "pool", tagBorda: "Borda", tagMaximin: "maximin",
	tagMinimum: "ε-Minimum", tagMaximum: "ε-Maximum",
}

// checkMergeTag vets the first byte of a checkpoint offered to a Merger
// whose own checkpoints carry one of the tags in own: an empty
// checkpoint or an unassigned tag is a decode error, a known tag of
// another container kind wraps ErrIncompatibleMerge, and nil means the
// checkpoint is the receiver's own kind and decodes as usual. Every
// Merger (serial, sharded, Borda) calls it first, so a container-kind
// mismatch classifies the same way whichever node receives it.
func checkMergeTag(checkpoint []byte, own ...byte) error {
	if len(checkpoint) == 0 {
		return errors.New("l1hh: empty checkpoint")
	}
	tag := checkpoint[0]
	for _, t := range own {
		if tag == t {
			return nil
		}
	}
	if int(tag) >= len(tagKinds) || tagKinds[tag] == "" {
		return fmt.Errorf("l1hh: unrecognized checkpoint tag %d", tag)
	}
	if tag == tagWindowed || tag == tagShardedWindowed {
		// Two nodes' windows cover different wall-clock slices of their
		// own streams; folding them answers no well-defined window.
		return merge.Incompatiblef("l1hh: sliding-window states are not mergeable (DESIGN.md §8)")
	}
	return merge.Incompatiblef("l1hh: cannot fold a %s checkpoint into a %s solver", tagKinds[tag], tagKinds[own[0]])
}

// canMergeFrom validates a mergeFrom without mutating either solver.
// Unknown-length engines (tag 0) never reach it: their adapters are not
// Mergers.
func (h *serialSolver) canMergeFrom(other *serialSolver) error {
	switch a := h.e.(type) {
	case *core.Optimal:
		b, ok := other.e.(*core.Optimal)
		if !ok {
			return merge.Incompatiblef("l1hh: cannot merge AlgorithmOptimal with AlgorithmSimple")
		}
		return a.CanMerge(b)
	case *core.SimpleList:
		b, ok := other.e.(*core.SimpleList)
		if !ok {
			return merge.Incompatiblef("l1hh: cannot merge AlgorithmSimple with AlgorithmOptimal")
		}
		return a.CanMerge(b)
	default:
		return fmt.Errorf("l1hh: engine %T is not mergeable", h.e)
	}
}

// mergeFrom folds other's state into h so that h summarizes the
// concatenation of both solvers' streams; other is left untouched. Both
// solvers must have been created with the same config (same seed
// included) and must be known-stream-length engines.
func (h *serialSolver) mergeFrom(other *serialSolver) error {
	if err := h.canMergeFrom(other); err != nil {
		return err
	}
	if a, ok := h.e.(*core.Optimal); ok {
		return a.Merge(other.e.(*core.Optimal))
	}
	return h.e.(*core.SimpleList).Merge(other.e.(*core.SimpleList))
}

// MergeEngine implements the shard-layer merge contract
// (shard.EngineMerger), letting a sharded container fold a foreign
// shard's solver into the live one.
func (h *serialSolver) MergeEngine(other shard.Engine) error {
	o, ok := other.(*serialSolver)
	if !ok {
		return merge.Incompatiblef("l1hh: foreign shard engine has type %T", other)
	}
	return h.mergeFrom(o)
}

// CheckMergeEngine implements the non-mutating half of
// shard.EngineMerger: the shard layer runs it across every shard before
// folding any, so container merges are all-or-nothing.
func (h *serialSolver) CheckMergeEngine(other shard.Engine) error {
	o, ok := other.(*serialSolver)
	if !ok {
		return merge.Incompatiblef("l1hh: foreign shard engine has type %T", other)
	}
	return h.canMergeFrom(o)
}

// mergeCheckpoint folds a tag-3 checkpoint produced by another node's
// sharded solver into the live engine, shard by shard. The foreign node
// must have been built from the same options — same (ε, ϕ), same seed,
// same shard count — so that both nodes route every id to the same
// shard and the per-shard solver states fold; anything else errors
// (wrapping ErrIncompatibleMerge for parameter mismatches) without
// touching live state. It is a barrier that runs concurrently with
// ingest: items enqueued before the call are reflected, and ingest keeps
// flowing during the merge.
func (h *shardedSolver) mergeCheckpoint(blob []byte) error {
	snap, err := h.parseMergeFrame(blob)
	if err != nil {
		return err
	}
	return h.s.MergeSnapshot(snap, func(i, total int, b []byte) (shard.Engine, error) {
		return unmarshalSerial(b)
	})
}

// CheckMerge implements Merger without mutating any shard: the
// container frame checks, the foreign rebuild, and the per-shard
// compatibility pass all run exactly as in mergeCheckpoint's check
// phase.
func (s *shardedHH) CheckMerge(checkpoint []byte) error {
	snap, err := s.parseMergeFrame(checkpoint)
	if err != nil {
		return err
	}
	return s.s.CheckSnapshot(snap, func(i, total int, b []byte) (shard.Engine, error) {
		return unmarshalSerial(b)
	})
}

// Merge implements Merger, folding a peer node's checkpoint shard by
// shard (DESIGN.md §7); failure is atomic. A successful merge marks the
// accuracy sentinel incoherent — the folded stream was never sampled.
func (s *shardedHH) Merge(checkpoint []byte) error {
	if err := s.mergeCheckpoint(checkpoint); err != nil {
		return err
	}
	s.sen.markForeign()
	return nil
}

// parseMergeFrame validates a checkpoint container for merging into h —
// sharded, non-windowed, matching problem parameters — and returns the
// nested shard snapshot. h itself is never windowed: only shardedHH,
// which wraps plain known-length containers, is a Merger.
func (h *shardedSolver) parseMergeFrame(blob []byte) ([]byte, error) {
	if err := checkMergeTag(blob, tagSharded); err != nil {
		return nil, err
	}
	other, snap, err := parseSharded(blob)
	if err != nil {
		return nil, err
	}
	if other.eps != h.eps || other.phi != h.phi {
		return nil, merge.Incompatiblef("l1hh: problem parameters differ: (ε=%g, ϕ=%g) vs (ε=%g, ϕ=%g)",
			h.eps, h.phi, other.eps, other.phi)
	}
	if err := checkGridBudget(blob); err != nil {
		return nil, err
	}
	return snap, nil
}
