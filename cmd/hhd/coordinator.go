package main

// coordinator.go — the asynchronous checkpoint coordinator behind
// -checkpoint-dir: a background worker that periodically serializes the
// live engine and hands the blob to a ckpt.Sink, so a crash loses at
// most one checkpoint interval of acknowledged items (DESIGN.md §12).
// Snapshotting rides MarshalBinary's engine barrier — ingest keeps
// flowing while the blob is encoded and written.

import (
	"context"
	"log/slog"
	"time"

	"repro/internal/ckpt"
)

// coordinator owns the snapshot schedule. It is a single goroutine
// (run), so seq and lastItems need no locking; the hhd_checkpoint_*
// metrics it feeds live in the server's registry, which is built before
// the coordinator exists.
type coordinator struct {
	srv   *server
	sink  ckpt.Sink
	every time.Duration

	// seq numbers snapshots monotonically, resuming above the newest
	// sequence found at startup so a restart never overwrites history.
	seq uint64
	// lastItems skips no-op snapshots: if the accepted-item count did
	// not move since the last store, the previous snapshot still covers
	// the stream (windowed engines always snapshot — retirement changes
	// state without changing the counter).
	lastItems uint64
	// windowed disables the lastItems skip.
	windowed bool

	done chan struct{}
}

// newCoordinator wires a coordinator for srv that snapshots every
// `every` onto sink, numbering snapshots from startSeq+1.
func newCoordinator(srv *server, sink ckpt.Sink, every time.Duration, startSeq uint64) *coordinator {
	return &coordinator{
		srv:      srv,
		sink:     sink,
		every:    every,
		seq:      startSeq,
		windowed: srv.engineStats().Window != nil,
		done:     make(chan struct{}),
	}
}

// run is the coordinator goroutine: snapshot on every tick until the
// context is canceled. The final shutdown snapshot is taken separately
// (finalSnapshot) after the engine drains, so it covers every
// acknowledged item.
func (co *coordinator) run(ctx context.Context) {
	defer close(co.done)
	t := time.NewTicker(co.every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			co.snapshot(false)
		}
	}
}

// wait blocks until run has returned; callers must cancel run's context
// first. Taking the final snapshot before run has exited would race the
// ticker for seq.
func (co *coordinator) wait() { <-co.done }

// finalSnapshot writes the shutdown snapshot unconditionally — the
// engine has drained, so this is the state a restart resumes from.
func (co *coordinator) finalSnapshot() { co.snapshot(true) }

// snapshot serializes the current state and stores one snapshot.
// Failures are logged and counted, never fatal: the daemon keeps
// serving and the next tick tries again. With a multi-tenant pool
// (-tenants) the snapshot is the pool checkpoint — the manifest plus
// every serializable tenant, dirty or spilled — instead of the default
// engine's; the frame cache inside the pool keeps untouched tenants
// from being re-encoded each tick.
func (co *coordinator) snapshot(force bool) {
	if p := co.srv.pool; p != nil {
		st := p.Stats()
		// Pinned tenants (time windows, accuracy sentinels) change
		// state by wall clock without moving the item counter, so their
		// presence disables the no-op skip — the pool-side mirror of the
		// single-engine windowed rule below. The pool's frame cache
		// keeps the untouched spillable tenants cheap to re-snapshot.
		if !force && st.Items == co.lastItems && st.TenantsPinned == 0 {
			return
		}
		co.encodeAndStore(p.MarshalBinary, st.Items)
		return
	}
	// Stats and MarshalBinary go through the server's lock discipline: a
	// single-owner problem engine (-problem) must not be snapshotted
	// while a /vote or /ingest handler is mutating it.
	st := co.srv.engineStats()
	if !force && !co.windowed && st.Items == co.lastItems {
		return
	}
	co.encodeAndStore(co.srv.marshalEngine, st.Items)
}

// encodeAndStore runs one marshal + store cycle and settles the
// coordinator's sequence, skip baseline and metrics.
func (co *coordinator) encodeAndStore(marshal func() ([]byte, error), items uint64) {
	start := time.Now()
	blob, err := marshal()
	co.srv.obs.ckptEncode.ObserveDuration(time.Since(start))
	if err != nil {
		co.srv.obs.ckptErrors.Inc()
		slog.Warn("checkpoint encode failed", "err", err)
		return
	}
	seq := co.seq + 1
	if err := co.sink.Store(seq, blob); err != nil {
		co.srv.obs.ckptErrors.Inc()
		slog.Warn("checkpoint store failed", "seq", seq, "err", err)
		return
	}
	co.seq = seq
	co.lastItems = items
	co.srv.obs.ckpt.Inc()
	co.srv.obs.ckptLastBytes.Set(float64(len(blob)))
	co.srv.obs.ckptLastSeq.Set(float64(seq))
	co.srv.ckptLastUnix.Store(time.Now().UnixNano())
	slog.Debug("checkpoint stored", "seq", seq, "bytes", len(blob), "items", items)
}
