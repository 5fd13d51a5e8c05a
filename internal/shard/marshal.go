package shard

import (
	"errors"
	"fmt"

	"repro/internal/wire"
)

// Snapshot/Restore move a whole sharded engine between processes: the
// frame records the partition (shard count + hash seed) so restored
// routing is identical, and carries each engine's own MarshalBinary blob
// opaquely — the shard layer never interprets sketch encodings.

// Snapshot versions: v1 (PR 1–4 era) records the partition and the
// engine blobs; v2 additionally records the accepted-items counter, the
// basis of the arrival stamps windowed engines serialize — restoring it
// keeps post-restore stamps on the same monotone axis as the stamps
// inside the engine blobs. Restore accepts both; v1 falls back to
// seeding the counter from the engines' summed lengths (which resets
// share accounting in windowed engines, see internal/window).
const (
	snapshotVersion   = 2
	snapshotVersionV1 = 1
)

// RestoreFactory rebuilds the engine for one shard from the blob its
// MarshalBinary produced at snapshot time.
type RestoreFactory func(shard, total int, blob []byte) (Engine, error)

// Snapshot serializes the partition parameters and every shard engine.
// It is a barrier: the snapshot reflects every item enqueued before the
// call. Every engine must implement Marshaler.
func (s *Sharded) Snapshot() ([]byte, error) {
	blobs := make([][]byte, len(s.engines))
	errs := make([]error, len(s.engines))
	s.Do(func(i int, e Engine) {
		m, ok := e.(Marshaler)
		if !ok {
			errs[i] = errors.New("shard: engine does not implement MarshalBinary")
			return
		}
		blobs[i], errs[i] = m.MarshalBinary()
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shard %d/%d: %w", i, len(s.engines), err)
		}
	}
	w := wire.NewWriter()
	w.U64(snapshotVersion)
	w.U64(uint64(len(s.engines)))
	w.U64(s.opts.Seed)
	w.U64(s.items.Load())
	for _, b := range blobs {
		w.Blob(b)
	}
	return w.Bytes(), nil
}

// snapshot is a Snapshot frame parsed but not yet rebuilt.
type snapshot struct {
	version, seed, items uint64
	blobs                [][]byte // one engine blob per shard
}

// parseSnapshot reads a Snapshot frame, checking everything but the
// engine blobs, which stay opaque.
func parseSnapshot(data []byte) (snapshot, error) {
	r := wire.NewReader(data)
	var f snapshot
	f.version = r.U64()
	if f.version != snapshotVersion && f.version != snapshotVersionV1 {
		if r.Err() != nil {
			return f, fmt.Errorf("shard: corrupt snapshot: %w", r.Err())
		}
		return f, fmt.Errorf("shard: unsupported snapshot version %d", f.version)
	}
	shards := r.U64()
	f.seed = r.U64()
	if f.version >= 2 {
		f.items = r.U64()
	}
	if r.Err() != nil {
		return f, fmt.Errorf("shard: corrupt snapshot: %w", r.Err())
	}
	if shards == 0 || shards > 1<<20 {
		return f, fmt.Errorf("shard: implausible shard count %d in snapshot", shards)
	}
	// Grow the blob list as blobs decode, so a short snapshot claiming
	// many shards allocates little.
	for i := uint64(0); i < shards && r.Err() == nil; i++ {
		f.blobs = append(f.blobs, r.Blob())
	}
	if r.Err() != nil {
		return f, fmt.Errorf("shard: corrupt snapshot: %w", r.Err())
	}
	if !r.Done() {
		return f, errors.New("shard: trailing bytes after snapshot")
	}
	return f, nil
}

// Blobs returns the engine blobs of a Snapshot, one per shard, without
// rebuilding anything: a caller can weigh what Restore would build
// before it builds it.
func Blobs(data []byte) ([][]byte, error) {
	f, err := parseSnapshot(data)
	return f.blobs, err
}

// Restore reconstructs a sharded engine from a Snapshot, rebuilding each
// shard with factory and starting fresh workers. The shard count and
// partition seed come from the snapshot; opts supplies the queue knobs
// only (its Shards and Seed fields are ignored).
func Restore(data []byte, factory RestoreFactory, opts Options) (*Sharded, error) {
	f, err := parseSnapshot(data)
	if err != nil {
		return nil, err
	}
	blobs, items := f.blobs, f.items
	opts.Shards = len(blobs)
	opts.Seed = f.seed
	s, err := New(func(i, total int) (Engine, error) {
		return factory(i, total, blobs[i])
	}, opts)
	if err != nil {
		return nil, err
	}
	// Seed the accepted-items counter: v2 snapshots recorded it (keeping
	// it ≥ every arrival stamp the engine blobs carry); v1 snapshots did
	// not, so fall back to the engines' summed lengths, which keeps
	// metrics coherent but resets windowed share accounting.
	if f.version >= 2 {
		if l := s.Len(); items < l {
			// A tampered counter below the engines' own mass would push
			// stamps backward; clamp to the coherent floor.
			items = l
		}
		s.items.Store(items)
	} else {
		s.items.Store(s.Len())
	}
	return s, nil
}
