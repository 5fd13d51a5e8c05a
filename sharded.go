package l1hh

import (
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/wire"
)

// shardedConfig configures the concurrent sharded solver: the problem
// parameters of config plus the ingest-layer knobs and, optionally, a
// sliding window (WithShards, WithQueueDepth, WithMaxBatch and the
// window options).
type shardedConfig struct {
	config
	// Shards is the number of independent solver instances the universe
	// is hash-partitioned across, each owned by a worker goroutine; 0
	// defaults to GOMAXPROCS.
	Shards int
	// QueueDepth is the per-shard queue capacity in batches (0 = 64,
	// at most shard.MaxQueueDepth). Full queues block producers — that
	// is the backpressure.
	QueueDepth int
	// MaxBatch is the items per shard batch (0 = 4096, at most
	// shard.MaxBatchLimit): dispatch chunks hold Shards × MaxBatch.
	MaxBatch int
	// Window, when non-zero, gives every shard a count-based sliding
	// window over its substream — ⌈Window/Shards⌉ items each, so the
	// merged report answers for approximately the last Window items of
	// the global stream. config.StreamLength is ignored in this mode.
	// Count windows slide on per-shard arrivals; under heavy skew (one
	// item dominating traffic, or Phi ≳ 1/Shards) prefer WindowDuration,
	// whose wall-clock retirement is skew-immune — DESIGN.md §8 has the
	// exact inclusion bound.
	Window uint64
	// WindowDuration, when non-zero, gives every shard a time-based
	// window of this wall-clock span. config.StreamLength must then be
	// the expected number of items per window, globally. Mutually
	// exclusive with Window.
	WindowDuration time.Duration
	// WindowBuckets is the per-shard epoch granularity (0 = 8); see
	// windowConfig.WindowBuckets.
	WindowBuckets int
}

// windowed reports whether a sliding window is configured.
func (c *shardedConfig) windowed() bool { return c.Window > 0 || c.WindowDuration > 0 }

// shardedSolver is the concurrent (ε,ϕ)-heavy hitters solver: ids are
// hash-partitioned across Shards independent engines, so an item's
// entire frequency lands in exactly one shard and per-shard reports
// union cleanly. Any number of goroutines may call Insert and
// InsertBatch concurrently; Report, ModelBits, Len, Stats, MarshalBinary
// and Close are barriers that may run concurrently with ingest. Its
// methods already have the HeavyHitters shapes, so New serves an
// unknown-length container bare and embeds the others in shardedHH or
// shardedWindowedHH (solver.go), which add their capabilities.
//
// Guarantees (DESIGN.md §3): each shard runs the configured engine at
// (ε, ϕ, δ/Shards) against its partition; the merged Report applies the
// (ϕ − ε/2)·m threshold against the global stream length m. Every item
// with f ≥ ϕ·m is reported and estimates are within ε·m, as for the
// serial solver; the no-false-positive bound (f ≤ (ϕ−ε)·m never
// reported) additionally needs no single shard to carry more than half
// the stream, which hash partitioning gives whp for Shards ≥ 2.
type shardedSolver struct {
	s        *shard.Sharded
	eps, phi float64
	// sen is the optional accuracy sentinel (never on windowed
	// containers); it serializes concurrent producers through its own
	// mutex, amortized per batch, never through the engine.
	sen *sentinel

	// Window geometry when the per-shard engines are windowed (zero
	// values otherwise); serialized in the tagShardedWindowed frame.
	window        uint64
	windowDur     time.Duration
	windowBuckets int
}

// Insert routes one item; prefer InsertBatch on hot paths.
func (h *shardedSolver) Insert(x Item) error {
	if err := h.s.Insert(x); err != nil {
		return err
	}
	h.sen.observe(x)
	return nil
}

// InsertBatch partitions items across the shard queues. Safe for
// concurrent callers; blocks when a queue is full. Returns ErrClosed
// after Close.
func (h *shardedSolver) InsertBatch(items []Item) error {
	if err := h.s.InsertBatch(items); err != nil {
		return err
	}
	h.sen.observeBatch(items)
	return nil
}

// InsertBatchBounded is InsertBatch with load shedding instead of
// unbounded backpressure: when a shard queue stays full past wait, it
// returns ErrSaturated rather than blocking. Batches dispatched to
// non-saturated shards before the full queue was hit have been
// enqueued, so a caller that retries the whole batch gets at-least-once
// delivery with possible duplicates (DESIGN.md §12). The wait budget
// covers the whole call. A saturated call marks the accuracy sentinel
// incoherent: the engines may have applied a prefix of the batch the
// shadow never sampled, so audits would report bogus violations.
func (h *shardedSolver) InsertBatchBounded(items []Item, wait time.Duration) error {
	if err := h.s.InsertBatchBounded(items, wait); err != nil {
		if errors.Is(err, ErrSaturated) {
			h.sen.markForeign()
		}
		return err
	}
	h.sen.observeBatch(items)
	return nil
}

// shareMinSample is the smallest per-shard covered mass the
// rate-extrapolated fold trusts for a traffic-share estimate. Below it
// the measured share cᵢ = Mᵢ/Sᵢ is sampling noise, so the fold applies
// the conservative clamp — weight 1, the raw pre-extrapolation
// behaviour — instead of amplifying a handful of arrivals into a bogus
// rate (DESIGN.md §8).
const shareMinSample = 256

// shareSample is one shard's global-arrival accounting, collected under
// the same barrier as its report: the covered mass, the stamps that
// price it as a share of recent global traffic, and the stamp
// granularity (gap) those stamps were measured at.
type shareSample struct {
	covered             uint64
	oldest, latest, gap uint64
	ok                  bool
}

// span is the number of global arrivals the shard's covered suffix
// spans, never less than the covered mass itself (its own arrivals are a
// subset of the global arrivals in the span, and batch-granular stamps
// can run slightly behind).
func (s shareSample) span(globalNow uint64) uint64 {
	sp := s.covered
	if sp == 0 {
		sp = 1
	}
	if s.ok && globalNow > s.oldest && globalNow-s.oldest > sp {
		sp = globalNow - s.oldest
	}
	return sp
}

// trustedSpan returns the shard's covered span when — and only when —
// the sample is trustworthy. It is THE clamp predicate (DESIGN.md §8),
// shared by the fold weights and the ShareSkew diagnostic so the two
// can never disagree: ok is false for unusable accounting (pre-stamp
// restore), fewer than shareMinSample covered items, or a stamp
// granularity so coarse — producers batching a sizeable fraction of
// the span per call — that the measured span is mostly quantization
// noise.
func (s shareSample) trustedSpan(globalNow uint64) (uint64, bool) {
	if !s.ok || s.covered < shareMinSample {
		return 0, false
	}
	span := s.span(globalNow)
	if s.gap*2 > span {
		return 0, false
	}
	return span, true
}

// weight is the extrapolation factor λᵢ = M/Sᵢ for the shard's
// estimates: scaling by it converts a count over the shard's covered
// span of Sᵢ global arrivals into the equivalent count over the M
// global arrivals the merged report answers for. Shards whose sample
// fails the trustedSpan predicate get the conservative clamp λ = 1
// (raw behaviour).
func (s shareSample) weight(m, globalNow uint64) float64 {
	span, ok := s.trustedSpan(globalNow)
	if !ok || m == 0 {
		return 1
	}
	return float64(m) / float64(span)
}

// extrapolating reports whether Report rate-extrapolates the per-shard
// estimates: count windows only (time windows retire on the wall clock,
// which is skew-immune) over more than one shard.
func (h *shardedSolver) extrapolating() bool {
	return h.window > 0 && h.s.Shards() > 1
}

// collectShareSample fills out from a windowed shard engine during a
// barrier pass (a no-op for non-windowed engines). The accounting comes
// from the engines themselves (rather than the queue-side accepted
// counter), which keeps it consistent with the barrier's linearization —
// and with the serialized state, so a restored checkpoint reports
// identically.
func collectShareSample(e shard.Engine, out *shareSample) {
	if w, ok := e.(*windowedSolver); ok {
		out.oldest, out.latest, out.gap, out.ok = w.arrivalStamps()
		out.covered = w.Len()
	}
}

// globalArrivalNow is the fold's reference "now" on the global-arrival
// axis: the latest stamp any shard observed.
func globalArrivalNow(samples []shareSample) uint64 {
	var now uint64
	for _, s := range samples {
		if s.ok && s.latest > now {
			now = s.latest
		}
	}
	return now
}

// Report merges the per-shard reports and applies the (ϕ − ε/2)·m
// threshold against the global stream length m, returning heavy hitters
// in decreasing-estimate order. It is a barrier: every item enqueued
// before the call is reflected.
//
// With per-shard count windows the fold is rate-extrapolated (DESIGN.md
// §8): each shard's estimates are scaled by λᵢ = m/Sᵢ, where Sᵢ is the
// number of global arrivals the shard's covered suffix spans, before the
// global threshold applies. An item's per-shard count is thereby
// converted into its equivalent count over the m arrivals the report
// answers for — undoing the skew-induced deflation where a dominant item
// inflates its own shard's traffic share and shrinks that shard's
// ⌈W/K⌉-item suffix, and down-weighting stale shards whose frozen
// buckets would otherwise contribute at full weight. Shards whose
// samples are too small to price (< shareMinSample covered items, or no
// arrival accounting yet) fall back to raw weights. The result is
// audited against the accuracy sentinel's shadow when one is installed.
func (h *shardedSolver) Report() []ItemEstimate {
	n := h.s.Shards()
	reports := make([][]ItemEstimate, n)
	lens := make([]uint64, n)
	extrap := h.extrapolating()
	var samples []shareSample
	if extrap {
		samples = make([]shareSample, n)
	}
	h.s.Do(func(i int, e shard.Engine) {
		reports[i] = e.Report()
		lens[i] = e.Len()
		if extrap {
			collectShareSample(e, &samples[i])
		}
	})
	var m uint64
	for _, l := range lens {
		m += l
	}
	thresh := (h.phi - h.eps/2) * float64(m)
	var globalNow uint64
	if extrap {
		globalNow = globalArrivalNow(samples)
	}
	var out []ItemEstimate
	for i, rep := range reports {
		weight := 1.0
		if extrap {
			weight = samples[i].weight(m, globalNow)
		}
		for _, r := range rep {
			f := r.F * weight
			if f >= thresh {
				out = append(out, ItemEstimate{Item: r.Item, F: f})
			}
		}
	}
	core.SortEstimates(out)
	h.sen.check(out, h.eps, h.phi)
	return out
}

// Len returns the total number of items processed across all shards
// (a barrier; Stats.Items is the cheap accepted-count).
func (h *shardedSolver) Len() uint64 { return h.s.Len() }

// Shards returns the partition width.
func (h *shardedSolver) Shards() int { return h.s.Shards() }

// Eps returns the additive-error parameter ε the solver was built with
// (preserved across checkpoint restores).
func (h *shardedSolver) Eps() float64 { return h.eps }

// Phi returns the heaviness threshold ϕ the solver was built with
// (preserved across checkpoint restores).
func (h *shardedSolver) Phi() float64 { return h.phi }

// Windowed reports whether the per-shard engines run sliding windows.
func (h *shardedSolver) Windowed() bool { return h.window > 0 || h.windowDur > 0 }

// Window returns the configured global window geometry: the count
// window W (0 for time windows), the duration D (0 for count windows),
// and the per-shard bucket granularity.
func (h *shardedSolver) Window() (w uint64, d time.Duration, buckets int) {
	return h.window, h.windowDur, h.windowBuckets
}

// WindowStats sums the per-shard window statistics — covered, total and
// retired mass, live and retired bucket counts — and takes the maximum
// per-shard span. CoveredMin/CoveredMax bound the per-shard covered
// masses (a stuck CoveredMin is the stale-shard caveat made observable)
// and ShareSkew compares the measured per-shard traffic shares. It is a
// barrier; ok is false when no window is configured.
func (h *shardedSolver) WindowStats() (stats WindowStats, ok bool) {
	if !h.Windowed() {
		return WindowStats{}, false
	}
	n := h.s.Shards()
	parts := make([]WindowStats, n)
	samples := make([]shareSample, n)
	h.s.Do(func(i int, e shard.Engine) {
		if w, isWin := e.(*windowedSolver); isWin {
			parts[i] = w.WindowStats()
		}
		collectShareSample(e, &samples[i])
	})
	return h.sumWindowStats(parts, samples), true
}

// sumWindowStats aggregates per-shard window statistics: masses and
// bucket counts sum, the wall-time span is the per-shard maximum,
// CoveredMin/CoveredMax bound the per-shard covered masses, and
// ShareSkew is the ratio between the largest and smallest measured
// traffic share (1 when fewer than two shards have usable accounting).
func (h *shardedSolver) sumWindowStats(parts []WindowStats, samples []shareSample) WindowStats {
	var stats WindowStats
	for i, p := range parts {
		stats.Covered += p.Covered
		stats.Total += p.Total
		stats.Retired += p.Retired
		stats.RetiredBuckets += p.RetiredBuckets
		stats.Buckets += p.Buckets
		stats.OldestMass += p.OldestMass
		if p.Span > stats.Span {
			stats.Span = p.Span
		}
		if i == 0 || p.Covered < stats.CoveredMin {
			stats.CoveredMin = p.Covered
		}
		if p.Covered > stats.CoveredMax {
			stats.CoveredMax = p.Covered
		}
	}
	stats.ShareSkew = shareSkew(samples)
	stats.Extrapolated = h.extrapolating()
	stats.PerShardWindow = splitCountWindow(h.window, h.s.Shards())
	return stats
}

// shareSkew compares the per-shard shares of recent global traffic,
// cᵢ = Mᵢ/Sᵢ over each shard's covered span, returning max/min across
// the shards whose samples pass the trustedSpan predicate — the same
// clamp the fold weights use, so the diagnostic describes exactly the
// report. 1 means balanced — or too little signal to say otherwise.
func shareSkew(samples []shareSample) float64 {
	globalNow := globalArrivalNow(samples)
	var minShare, maxShare float64
	qualified := 0
	for _, s := range samples {
		span, ok := s.trustedSpan(globalNow)
		if !ok {
			continue
		}
		c := float64(s.covered) / float64(span)
		if qualified == 0 || c < minShare {
			minShare = c
		}
		if c > maxShare {
			maxShare = c
		}
		qualified++
	}
	if qualified < 2 || minShare <= 0 {
		return 1
	}
	return maxShare / minShare
}

// Stats returns the unified operational snapshot (see Stats). All
// barrier-derived fields — Len, ModelBits, Window — come from one pass
// over the shards, so they are mutually coherent; Items and QueueDepths
// are the cheap queue-side counters read at the same moment. The
// accuracy sentinel's audit snapshot is attached when one is installed.
func (h *shardedSolver) Stats() Stats {
	st := Stats{
		Items:       h.s.Items(),
		Eps:         h.eps,
		Phi:         h.phi,
		Shards:      h.s.Shards(),
		QueueDepths: h.s.QueueDepths(),
	}
	lens := make([]uint64, h.s.Shards())
	bits := make([]int64, h.s.Shards())
	wins := make([]WindowStats, h.s.Shards())
	samples := make([]shareSample, h.s.Shards())
	h.s.Do(func(i int, e shard.Engine) {
		lens[i] = e.Len()
		bits[i] = e.ModelBits()
		if w, isWin := e.(*windowedSolver); isWin {
			wins[i] = w.WindowStats()
		}
		collectShareSample(e, &samples[i])
	})
	for i := range lens {
		st.Len += lens[i]
		st.ModelBits += bits[i]
	}
	if h.Windowed() {
		w := h.sumWindowStats(wins, samples)
		st.Window = &w
	}
	h.sen.attach(&st)
	return st
}

// ModelBits sums the per-shard sketch sizes under the paper's
// accounting: K-way parallelism honestly costs K sketches.
func (h *shardedSolver) ModelBits() int64 { return h.s.ModelBits() }

// Flush blocks until every accepted item has reached its engine.
func (h *shardedSolver) Flush() { h.s.Flush() }

// Close drains the queues and stops the workers. Report, ModelBits and
// MarshalBinary still work afterwards (they run inline); ingest returns
// ErrClosed. Idempotent.
func (h *shardedSolver) Close() error { return h.s.Close() }

// MarshalBinary checkpoints the complete sharded state: the problem
// thresholds, the partition, and every shard engine's own serialized
// state. Known-stream-length engines only (as for serialSolver).
// It is a barrier: the checkpoint reflects every item enqueued before
// the call. Non-windowed solvers emit the original tagSharded container,
// so their checkpoints stay readable by older builds; windowed solvers
// emit the tagShardedWindowed container, which adds the window geometry.
func (h *shardedSolver) MarshalBinary() ([]byte, error) {
	snap, err := h.s.Snapshot()
	if err != nil {
		return nil, err
	}
	w := wire.NewWriter()
	w.F64(h.eps)
	w.F64(h.phi)
	if h.Windowed() {
		w.U64(h.window)
		w.I64(int64(h.windowDur))
		w.U64(uint64(h.windowBuckets))
	}
	w.Blob(snap)
	tag := tagSharded
	if h.Windowed() {
		tag = tagShardedWindowed
	}
	return append([]byte{tag}, w.Bytes()...), nil
}
