package window

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"repro/internal/wire"
)

// Checkpointing: the frame records the window configuration, the
// retirement counters, and each live bucket's metadata plus its engine's
// own MarshalBinary blob (opaque to this layer, exactly as in the shard
// container). A sealed bucket's blob is the frame it keeps, written
// verbatim. Time-mode bucket timestamps are wall-clock UnixNano, so a
// restore in a new process retires what aged out while the checkpoint
// sat on disk.

// Snapshot versions: v1 (PR 3/4 era) carries the geometry, the
// retirement counters, and the buckets; v2 additionally carries the
// global-arrival share accounting (the window's stamp high-water mark
// and each bucket's opening stamp). Restore accepts both; v1 decodes
// with share accounting reset — stamps unknown until the next
// ObserveArrivalStamp, so the rate-extrapolated fold falls back to
// legacy per-shard weights instead of inventing spans (DESIGN.md §8).
const (
	snapshotVersion   = 2
	snapshotVersionV1 = 1
)

// MarshalBinary serializes the window configuration and every live
// bucket: the sealed buckets' frames as they are, and the open bucket's
// engine freshly marshaled.
func (w *Window) MarshalBinary() ([]byte, error) {
	_ = w.advance()
	enc := wire.NewWriter()
	enc.U64(snapshotVersion)
	enc.U64(w.opts.LastN)
	enc.I64(int64(w.opts.LastDuration))
	enc.U64(uint64(w.opts.Buckets))
	enc.U64(w.total)
	enc.U64(w.retired)
	enc.U64(w.retiredBuckets)
	enc.U64(w.stamp)
	enc.U64(w.prevStamp)
	enc.Bool(w.stampKnown)
	live, err := w.live.eng.MarshalBinary()
	if err != nil {
		return nil, err
	}
	enc.U64(uint64(len(w.sealed) + 1))
	for _, b := range w.sealed {
		writeBucket(enc, b, b.frame)
	}
	writeBucket(enc, w.live, live)
	return enc.Bytes(), nil
}

// writeBucket writes one bucket's metadata and its engine's frame.
func writeBucket(enc *wire.Writer, b *bucket, frame []byte) {
	enc.U64(b.count)
	enc.I64(b.start.UnixNano())
	enc.I64(b.last.UnixNano())
	enc.U64(b.startStamp)
	enc.U64(b.startGap)
	enc.Bool(b.stamped)
	enc.Blob(frame)
}

// snapshot is a MarshalBinary frame parsed but not yet rebuilt.
type snapshot struct {
	lastN                          uint64
	lastDuration                   time.Duration
	buckets                        int
	total, retired, retiredBuckets uint64
	stamp, prevStamp               uint64
	stampKnown                     bool
	live                           []*bucket // engine not yet restored
	blobs                          [][]byte  // each live bucket's engine blob
}

// parseSnapshot reads a MarshalBinary frame, checking everything but the
// engine blobs, which stay opaque.
func parseSnapshot(data []byte) (snapshot, error) {
	r := wire.NewReader(data)
	var f snapshot
	v := r.U64()
	if v != snapshotVersion && v != snapshotVersionV1 {
		if r.Err() != nil {
			return f, fmt.Errorf("window: corrupt snapshot: %w", r.Err())
		}
		return f, fmt.Errorf("window: unsupported snapshot version %d", v)
	}
	f.lastN = r.U64()
	f.lastDuration = time.Duration(r.I64())
	buckets := r.U64()
	f.total = r.U64()
	f.retired = r.U64()
	f.retiredBuckets = r.U64()
	// v1 snapshots predate arrival stamps: the accounting starts unknown
	// and re-establishes on the first observed stamp.
	if v >= 2 {
		f.stamp = r.U64()
		f.prevStamp = r.U64()
		f.stampKnown = r.Bool()
	}
	n := r.U64()
	if r.Err() != nil {
		return f, fmt.Errorf("window: corrupt snapshot: %w", r.Err())
	}
	// Bound the geometry before allocating anything proportional to it:
	// a hostile snapshot must error, not exhaust memory. (Options.fill
	// re-checks the granularity; this keeps the bucket-count bound
	// meaningful even so.)
	if buckets == 0 || buckets > maxBuckets {
		return f, fmt.Errorf("window: implausible granularity %d in snapshot", buckets)
	}
	f.buckets = int(buckets)
	if n == 0 || n > uint64(MaxLive(f.buckets)) {
		return f, fmt.Errorf("window: implausible bucket count %d in snapshot", n)
	}
	// Grow the bucket list as buckets decode, so a short snapshot
	// claiming many allocates little.
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		b := &bucket{count: r.U64()}
		b.start = time.Unix(0, r.I64())
		b.last = time.Unix(0, r.I64())
		if v >= 2 {
			b.startStamp = r.U64()
			b.startGap = r.U64()
			b.stamped = r.Bool()
		}
		f.live = append(f.live, b)
		f.blobs = append(f.blobs, r.Blob())
	}
	if r.Err() != nil {
		return f, fmt.Errorf("window: corrupt snapshot: %w", r.Err())
	}
	if !r.Done() {
		return f, errors.New("window: trailing bytes after snapshot")
	}
	return f, nil
}

// Blobs returns the engine blobs of a MarshalBinary frame, one per live
// bucket, without restoring anything: a caller can weigh what Restore
// would build before it builds it.
func Blobs(data []byte) ([][]byte, error) {
	f, err := parseSnapshot(data)
	return f.blobs, err
}

// Restore reconstructs a Window from a MarshalBinary blob (either
// snapshot version — v1 blobs decode with share accounting reset). The
// window geometry (mode, size, bucket count) comes from the blob; opts
// supplies only the clock (its other fields are ignored). factory builds
// the engines for buckets opened after the restore; restore decodes the
// checkpointed ones. Every bucket's frame is decoded here, once, so a
// corrupt sealed bucket is refused now rather than by a later Report; a
// sealed bucket then keeps a copy of its frame, and only the open
// bucket keeps its decoded engine.
func Restore(data []byte, factory Factory, restore Restorer, opts Options) (*Window, error) {
	f, err := parseSnapshot(data)
	if err != nil {
		return nil, err
	}
	opts.LastN, opts.LastDuration, opts.Buckets = f.lastN, f.lastDuration, f.buckets
	// Build the shell only — the decoded buckets below supply the live
	// engine, so opening a fresh one here would be a wasted allocation.
	w, err := newWindow(factory, restore, opts)
	if err != nil {
		return nil, err
	}
	w.total, w.retired, w.retiredBuckets = f.total, f.retired, f.retiredBuckets
	w.stamp, w.prevStamp, w.stampKnown = f.stamp, f.prevStamp, f.stampKnown
	bs, n := f.live, len(f.live)
	for i, b := range bs {
		eng, err := restore(f.blobs[i])
		if err != nil {
			return nil, fmt.Errorf("window: bucket %d/%d: %w", i, n, err)
		}
		// The count field drives retirement and the covered mass (and so
		// the report threshold); it must agree with what the engine
		// actually holds, or a tampered snapshot could poison every
		// later report while decoding "successfully".
		if got := eng.Len(); got != b.count {
			return nil, fmt.Errorf("window: bucket %d/%d count %d disagrees with engine length %d",
				i, n, b.count, got)
		}
		if i == n-1 {
			b.eng = eng
		} else {
			// The blob aliases data, which the caller owns.
			b.frame, b.bits = bytes.Clone(f.blobs[i]), eng.ModelBits()
		}
	}
	w.sealed = bs[:n-1]
	w.live = bs[n-1]
	for _, b := range bs {
		w.cov += b.count
	}
	return w, nil
}
