package shard

import (
	"errors"
	"fmt"

	"repro/internal/merge"
)

// EngineMerger is the per-shard merge contract: MergeEngine folds a
// foreign engine's state (the same shard of another node) into the
// receiver, and CheckMergeEngine reports whether that fold would succeed
// without mutating anything. MergeSnapshot requires every live engine to
// implement it, and runs the check phase across all shards before any
// merge phase — so a container whose shards are individually decodable
// but mutually inconsistent is rejected atomically.
type EngineMerger interface {
	MergeEngine(other Engine) error
	CheckMergeEngine(other Engine) error
}

// MergeSnapshot folds a foreign Snapshot — the checkpoint container of
// another node's sharded engine — into the live engine, shard by shard.
// The foreign partition must match exactly (same shard count, same
// partition-hash seed): only then does every id's state live in the same
// shard on both nodes, so per-shard merges combine disjoint substreams of
// the same ids. factory rebuilds each foreign shard engine from its blob,
// exactly as in Restore.
//
// It is a barrier: each live engine merges on its owning worker
// goroutine after every batch enqueued before the call, concurrently
// across shards, while ingest keeps flowing. Failure is atomic: the
// container checks, the foreign rebuild, and a full CheckMergeEngine
// pass across every shard all happen before any live engine is mutated
// (compatibility is invariant under ingest, so the check stays valid
// until the merge phase), and the merge phase itself cannot fail.
func (s *Sharded) MergeSnapshot(data []byte, factory RestoreFactory) error {
	foreign, added, err := s.decodeForeign(data, factory)
	if err != nil {
		return err
	}
	// Check phase: validate every shard pair before mutating any.
	if err := s.checkForeign(foreign); err != nil {
		return err
	}
	// Merge phase: every pair checked compatible, so no fold can fail.
	errs := make([]error, len(s.engines))
	s.Do(func(i int, e Engine) {
		errs[i] = e.(EngineMerger).MergeEngine(foreign[i])
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d/%d: checked engine refused merge: %w", i, len(s.engines), err)
		}
	}
	// The foreign items are now part of the live engines; keep the cheap
	// accepted-items counter coherent with Len.
	s.items.Add(added)
	return nil
}

// CheckSnapshot reports whether MergeSnapshot would succeed, without
// mutating any live engine: the container checks, the foreign rebuild,
// and the CheckMergeEngine pass all run exactly as in MergeSnapshot's
// check phase. Compatibility is invariant under ingest, so a nil result
// stays valid until parameters or partitions change — which they cannot
// on a live engine.
func (s *Sharded) CheckSnapshot(data []byte, factory RestoreFactory) error {
	foreign, _, err := s.decodeForeign(data, factory)
	if err != nil {
		return err
	}
	return s.checkForeign(foreign)
}

// decodeForeign parses a snapshot container against the live partition
// (shard count and hash seed must match exactly) and rebuilds the
// foreign engines; added is their summed length. Shared by MergeSnapshot
// and CheckSnapshot.
func (s *Sharded) decodeForeign(data []byte, factory RestoreFactory) (foreign []Engine, added uint64, err error) {
	f, err := parseSnapshot(data)
	if err != nil {
		return nil, 0, err
	}
	// The accepted-items counter matters to Restore (it re-bases the
	// arrival stamps); a merge only folds engine state, so the foreign
	// counter is irrelevant here. (Windowed engines refuse merging
	// anyway — DESIGN.md §8.)
	shards := len(f.blobs)
	if shards != len(s.engines) {
		return nil, 0, merge.Incompatiblef("shard: snapshot has %d shards, live engine has %d", shards, len(s.engines))
	}
	if f.seed != s.opts.Seed {
		return nil, 0, merge.Incompatiblef("shard: partition seeds differ — ids route to different shards")
	}
	foreign = make([]Engine, shards)
	for i := range foreign {
		e, err := factory(i, shards, f.blobs[i])
		if err != nil {
			return nil, 0, fmt.Errorf("shard %d/%d: %w", i, shards, err)
		}
		foreign[i] = e
		added += e.Len()
	}
	return foreign, added, nil
}

// checkForeign runs the non-mutating CheckMergeEngine pass across every
// live/foreign shard pair.
func (s *Sharded) checkForeign(foreign []Engine) error {
	errs := make([]error, len(s.engines))
	s.Do(func(i int, e Engine) {
		m, ok := e.(EngineMerger)
		if !ok {
			errs[i] = errors.New("shard: live engine does not implement EngineMerger")
			return
		}
		errs[i] = m.CheckMergeEngine(foreign[i])
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d/%d: %w", i, len(s.engines), err)
		}
	}
	return nil
}
