package l1hh

// solver.go — the unified front door. New composes the engine stack for
// whichever Problem the options select (heavy hitters by default; the
// voting and frequency-extreme problems via WithProblem — see
// problems.go) behind the HeavyHitters interface; Unmarshal restores
// any checkpoint container (tags 1–5 heavy hitters, 7–10 problem
// engines) behind the same interface. Optional behaviours are small
// capability interfaces (Merger, Windower, Flusher, Sharder,
// Voter, Extremes, PointQuerier) discovered by type assertion, never by
// switching on concrete types — DESIGN.md §9 and §14 document the
// contract.

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/rng"
	"repro/internal/shard"
)

// ErrClosed is returned by Insert and InsertBatch after Close; test with
// errors.Is. Reports, stats and checkpoints still work on a closed
// solver.
var ErrClosed = shard.ErrClosed

// ErrSaturated is returned by Shedder.InsertBatchBounded when a shard
// ingest queue stayed full for the whole bounded wait: the offered load
// exceeds what the shard workers drain, and the caller should back off
// and retry (the batch was not fully enqueued — see Shedder for the
// delivery semantics). Test with errors.Is.
var ErrSaturated = shard.ErrSaturated

// HeavyHitters is the one interface every (ε,ϕ)-heavy hitters solver in
// this package presents, regardless of how New composed it (serial,
// windowed, sharded, or sharded+windowed). Construction scenarios differ
// only in the capability interfaces the returned value additionally
// satisfies — Merger, Windower, Flusher, Sharder.
//
// Concurrency: only solvers that satisfy Sharder accept Insert and
// InsertBatch from multiple goroutines; all other methods of those
// solvers are barriers that may run concurrently with ingest. Solvers
// without Sharder are single-owner.
type HeavyHitters interface {
	// Insert processes one stream item. It returns ErrClosed after
	// Close; a nil error means the item was accepted.
	Insert(x Item) error
	// InsertBatch processes a batch of items, the amortized fast path on
	// concurrent solvers. The input slice is not retained.
	InsertBatch(items []Item) error
	// Report returns the heavy hitters with frequency estimates in
	// decreasing-estimate order, under the (ε,ϕ) guarantees of the
	// composed engines (DESIGN.md §2, §3, §8).
	Report() []ItemEstimate
	// Len returns the stream length a Report answers for: items
	// processed so far, or the covered mass for windowed solvers.
	Len() uint64
	// Eps returns the additive-error parameter ε the solver was built
	// with (preserved across checkpoint restores).
	Eps() float64
	// Phi returns the heaviness threshold ϕ the solver was built with
	// (preserved across checkpoint restores).
	Phi() float64
	// Stats returns one coherent snapshot of the solver's operational
	// state. On concurrent solvers it is a barrier.
	Stats() Stats
	// ModelBits reports the sketch size in bits under the paper's
	// accounting model (DESIGN.md §4); aggregates are honest (K shards
	// cost K sketches, a B-bucket window costs B+1).
	ModelBits() int64
	// MarshalBinary checkpoints the complete solver state; Unmarshal
	// restores it. Unknown-stream-length solvers are not serializable
	// and return an error.
	MarshalBinary() ([]byte, error)
	// Close stops ingest (draining any queues); Insert then returns
	// ErrClosed, while Report, Stats and MarshalBinary keep working.
	// Idempotent.
	Close() error
}

// Stats is the unified operational snapshot of any HeavyHitters solver.
// On concurrent solvers it is collected under a single barrier, so the
// fields are mutually coherent.
type Stats struct {
	// Items is the number of items accepted so far. On sharded solvers
	// some may still sit in ingest queues (Items ≥ Len); everywhere else
	// Items counts every insert ever made, including mass that has aged
	// out of a window.
	Items uint64
	// Len is the stream length a Report answers for: processed items,
	// or the covered mass under a window.
	Len uint64
	// Eps is the additive-error parameter ε.
	Eps float64
	// Phi is the heaviness threshold ϕ.
	Phi float64
	// Shards is the partition width; 1 for single-owner solvers.
	Shards int
	// QueueDepths is the per-shard ingest queue occupancy in batches;
	// nil for single-owner solvers.
	QueueDepths []int
	// ModelBits is the sketch size under the paper's accounting.
	ModelBits int64
	// Window describes the sliding-window coverage; nil when the solver
	// answers for the whole stream.
	Window *WindowStats
	// ObservedEps is the worst per-item error fraction the accuracy
	// sentinel measured on the most recently audited report; 0 without
	// WithAccuracySentinel. Includes sampling noise (see SentinelStats).
	ObservedEps float64
	// Sentinel describes the accuracy sentinel's audit state; nil
	// without WithAccuracySentinel.
	Sentinel *SentinelStats
}

// Merger is the capability of folding another node's checkpoint into
// the live solver, so a fleet ingesting slices of one logical stream
// can be combined into a global summary (DESIGN.md §7). Implemented by
// known-stream-length serial and sharded solvers; windowed solvers are
// never Mergers (two nodes' windows cover different wall-clock slices —
// DESIGN.md §8).
type Merger interface {
	// CheckMerge reports whether Merge(checkpoint) would succeed,
	// without mutating anything. Incompatibility (different parameters,
	// seeds, partitions, or container kinds) wraps ErrIncompatibleMerge.
	CheckMerge(checkpoint []byte) error
	// Merge folds the checkpoint into the live solver so Report answers
	// for the concatenation of both streams. Failure is atomic: on any
	// error the live state is unchanged.
	Merge(checkpoint []byte) error
}

// Windower is the capability of answering for a sliding window rather
// than the whole stream. Implemented by windowed solvers (serial and
// sharded).
type Windower interface {
	// WindowStats describes the current coverage: covered/retired mass,
	// live bucket count, and the age of the oldest covered item. On a
	// sharded window the per-shard statistics are summed (Span is the
	// maximum).
	WindowStats() WindowStats
	// Window returns the configured geometry: the count window w (0 for
	// time windows), the duration d (0 for count windows), and the
	// per-window bucket granularity.
	Window() (w uint64, d time.Duration, buckets int)
}

// Flusher is the capability of forcing buffered work through: Flush
// blocks until every accepted item has reached its engine through the
// shard ingest queues. Report and MarshalBinary flush implicitly; Flush
// exists for callers that want the barrier alone.
type Flusher interface {
	// Flush blocks until every accepted item has been applied.
	Flush()
}

// Sharder is the capability marker for concurrent ingest: solvers that
// satisfy it accept Insert and InsertBatch from any number of
// goroutines. Callers that serve multi-goroutine traffic (cmd/hhd)
// assert it instead of trusting configuration.
type Sharder interface {
	// Shards returns the partition width.
	Shards() int
}

// Shedder is the capability of bounded-wait ingest with load shedding,
// for servers that must never park a handler goroutine on a full shard
// queue (cmd/hhd answers 429 + Retry-After from it — DESIGN.md §12).
// Implemented by the sharded containers; single-owner solvers apply
// items inline and have no queue to saturate.
//
// Delivery semantics: a call that returns ErrSaturated may have
// enqueued a prefix of its batches (those routed to non-saturated
// shards). Retrying the whole batch is therefore at-least-once —
// duplicates are possible, bounded by one call's items per shed.
type Shedder interface {
	// InsertBatchBounded inserts like InsertBatch but returns
	// ErrSaturated instead of blocking once a shard queue stays full
	// past wait (the budget covers the whole call).
	InsertBatchBounded(items []Item, wait time.Duration) error
}

// New builds a heavy hitters solver from functional options — the one
// front door for every construction scenario:
//
//	l1hh.New(l1hh.WithEps(0.01), l1hh.WithPhi(0.05))                    // serial, unknown length
//	l1hh.New(..., l1hh.WithStreamLength(1e8))                           // serial, known length (mergeable, serializable)
//	l1hh.New(..., l1hh.WithShards(8))                                   // concurrent sharded ingest
//	l1hh.New(..., l1hh.WithCountWindow(1e6, 64))                        // heavy hitters of the last 10⁶ items
//	l1hh.New(..., l1hh.WithShards(8), l1hh.WithCountWindow(1e6, 64))    // both
//
// Options compose in any order; the engine stack is canonical — shards
// on the outside, windows in the middle, solver engines innermost
// (DESIGN.md §9). The returned value additionally satisfies the
// capability interfaces its composition supports.
//
// WithProblem switches the front door to one of the paper's related
// problems — the voting problems (BordaProblem, MaximinProblem; assert
// Voter) or the frequency extremes (MinFrequencyProblem,
// MaxFrequencyProblem; assert Extremes):
//
//	l1hh.New(l1hh.WithProblem(l1hh.BordaProblem),
//	         l1hh.WithCandidates(8), l1hh.WithEps(0.05), l1hh.WithPhi(0.6))
//
// Each problem validates its own option subset; see problems.go and
// DESIGN.md §14 for the problem-keyed builder table.
//
// An AlgorithmOptimal solver holds at most 2²⁸ one-byte grid cells,
// summed over its shards and, for a window of B buckets, the B+2
// bucket engines each window may hold. New refuses a larger solver,
// because Unmarshal refuses a checkpoint that claims more (a checkpoint
// writes an empty cell in almost no bytes, so its length bounds
// nothing). One engine reaches ε = 10⁻⁵ at any ϕ ≥ 10⁻³ (DESIGN.md §2).
func New(opts ...Option) (HeavyHitters, error) {
	st, err := resolveOptions(opts)
	if err != nil {
		return nil, err
	}
	if err := st.validateNew(); err != nil {
		return nil, err
	}
	st.cfg.fill()
	return problemSpecs[st.problem].build(&st)
}

// buildHeavyHittersProblem composes the default (ε,ϕ)-heavy hitters
// engine stack — the HeavyHittersProblem row of the builder table.
func buildHeavyHittersProblem(st *settings) (HeavyHitters, error) {
	switch {
	case st.sharded():
		eng, err := buildSharded(shardedConfig{
			config:         st.cfg,
			Shards:         st.shards,
			QueueDepth:     st.queueDepth,
			MaxBatch:       st.maxBatch,
			Window:         st.window,
			WindowDuration: st.windowDur,
			WindowBuckets:  st.windowBuckets,
		}, st.clock, st.shardHooks())
		if err != nil {
			return nil, err
		}
		eng.sen = st.newSentinel()
		return wrapSharded(eng, st.cfg.StreamLength > 0), nil
	case st.windowed():
		eng, err := buildWindowed(windowConfig{
			config:         st.cfg,
			Window:         st.window,
			WindowDuration: st.windowDur,
			WindowBuckets:  st.windowBuckets,
			Clock:          st.clock,
		})
		if err != nil {
			return nil, err
		}
		return &windowedHH{singleOwnerBase[*windowedSolver]{e: eng}}, nil
	default:
		eng, err := buildSerial(st.cfg)
		if err != nil {
			return nil, err
		}
		return wrapSerial(eng, st.newSentinel()), nil
	}
}

// shardHooks converts the public ingest-observer callbacks into the
// internal shard hook set.
func (st *settings) shardHooks() shard.Hooks {
	return shard.Hooks{
		EnqueueWait: st.timings.EnqueueWait,
		BatchApply:  st.timings.BatchApply,
	}
}

// newSentinel builds the accuracy sentinel when requested (nil
// otherwise — every sentinel call site is nil-safe). The shadow
// sampler's randomness derives from the solver seed, so audited runs
// stay reproducible.
func (st *settings) newSentinel() *sentinel {
	if !st.has(optSentinel) {
		return nil
	}
	return newSentinel(st.sentinelRate, rng.New(st.cfg.Seed).Split())
}

// Unmarshal restores a solver from any checkpoint this package produces
// — serial (tags 1–2), sharded (3), windowed (4), sharded+windowed (5),
// and the problem engines (Borda 7, maximin 8, ε-Minimum 9, ε-Maximum
// 10) — behind the HeavyHitters interface, with the same capability set
// the original had. Problem parameters live in the checkpoint; opts may
// carry runtime tuning only, and only where it applies (the problem
// engines take none):
//
//	WithQueueDepth, WithMaxBatch — sharded containers (3, 5)
//	WithClock                   — windowed containers (4, 5)
//	WithIngestObserver          — sharded containers (3, 5);
//	                              instrumentation is never serialized
//
// A checkpoint whose Algorithm 2 engines claim more grid cells between
// them than New admits (see New) is refused from its frame headers,
// before any engine is decoded.
func Unmarshal(data []byte, opts ...Option) (HeavyHitters, error) {
	st, err := resolveOptions(opts)
	if err != nil {
		return nil, err
	}
	if st.set&^runtimeOpts != 0 {
		return nil, errors.New("l1hh: Unmarshal accepts runtime options only (WithQueueDepth, WithMaxBatch, WithClock, WithIngestObserver) — problem parameters come from the checkpoint")
	}
	if len(data) < 2 {
		return nil, errors.New("l1hh: truncated solver encoding")
	}
	if err := checkGridBudget(data); err != nil {
		return nil, err
	}
	switch data[0] {
	case tagOptimal, tagSimple:
		if err := st.rejectOpts(optQueueDepth|optMaxBatch|optClock|optObserver, "a serial checkpoint"); err != nil {
			return nil, err
		}
		eng, err := unmarshalSerial(data)
		if err != nil {
			return nil, err
		}
		return wrapSerial(eng, nil), nil
	case tagSharded:
		if err := st.rejectOpts(optClock, "a sharded checkpoint"); err != nil {
			return nil, err
		}
		eng, err := unmarshalSharded(data, st.queueDepth, st.maxBatch, nil, st.shardHooks())
		if err != nil {
			return nil, err
		}
		return wrapSharded(eng, true), nil
	case tagShardedWindowed:
		eng, err := unmarshalSharded(data, st.queueDepth, st.maxBatch, st.clock, st.shardHooks())
		if err != nil {
			return nil, err
		}
		return wrapSharded(eng, true), nil
	case tagWindowed:
		if err := st.rejectOpts(optQueueDepth|optMaxBatch|optObserver, "a windowed checkpoint"); err != nil {
			return nil, err
		}
		eng, err := unmarshalWindowed(data, st.clock)
		if err != nil {
			return nil, err
		}
		return &windowedHH{singleOwnerBase[*windowedSolver]{e: eng}}, nil
	case tagBorda, tagMaximin, tagMinimum, tagMaximum:
		if err := st.rejectOpts(runtimeOpts, "a problem-engine checkpoint (the voting and extremes engines take no runtime tuning)"); err != nil {
			return nil, err
		}
		return unmarshalProblem(data)
	case tagPool:
		return nil, errors.New("l1hh: this is a multi-tenant pool checkpoint — restore it with UnmarshalPool")
	default:
		return nil, fmt.Errorf("l1hh: unrecognized solver tag %d — Unmarshal decodes tags %d–%d (serial, sharded, windowed, and the problem engines); the pool tag %d needs UnmarshalPool", data[0], tagOptimal, tagMaximum, tagPool)
	}
}

// rejectOpts errors when any of the given option bits were applied,
// naming the container kind that cannot use them.
func (st *settings) rejectOpts(bits uint32, kind string) error {
	if st.set&bits == 0 {
		return nil
	}
	return fmt.Errorf("l1hh: option does not apply to %s (runtime options are container-specific — see Unmarshal)", kind)
}

// wrapSerial picks the adapter whose capability set matches a serial
// engine: unknown-length solvers are served by the bare base (no
// extras), and every known-length solver is a Merger and PointQuerier.
// sen is the optional accuracy sentinel (nil when not requested).
func wrapSerial(eng *serialSolver, sen *sentinel) HeavyHitters {
	base := singleOwnerBase[*serialSolver]{e: eng, sen: sen}
	if eng.tag == 0 {
		return &base
	}
	return &serialHH{base}
}

// wrapSharded picks the adapter whose capability set matches a sharded
// container: windowed containers add Windower, known-length ones Merger
// and PointQuerier, and an unknown-length container is served bare —
// Flusher, Sharder and Shedder only (its staggered shard engines neither
// fold nor bound a per-item estimate).
func wrapSharded(eng *shardedSolver, known bool) HeavyHitters {
	switch {
	case eng.Windowed():
		return &shardedWindowedHH{eng}
	case known:
		return &shardedHH{eng}
	default:
		return eng
	}
}

// singleOwnerEngine is the method set the single-owner concrete engines
// share; *serialSolver and *windowedSolver both satisfy it, so one
// adapter base serves serial and windowed solvers. Its ingest methods
// are the shard workers' (shard.Engine), so a batch takes one path
// whether a worker or a single owner inserts it.
type singleOwnerEngine interface {
	Insert(x Item)
	InsertBatch(items []Item)
	Report() []ItemEstimate
	Len() uint64
	Eps() float64
	Phi() float64
	Stats() Stats
	ModelBits() int64
	MarshalBinary() ([]byte, error)
}

// singleOwnerBase adapts a single-owner engine to the HeavyHitters
// interface: error-returning inserts with a closed state, delegation
// everywhere else. sen is the optional accuracy sentinel; every use is
// nil-safe, so the disabled path costs one nil check.
type singleOwnerBase[E singleOwnerEngine] struct {
	e      E
	sen    *sentinel
	closed bool
}

func (s *singleOwnerBase[E]) Insert(x Item) error {
	if s.closed {
		return ErrClosed
	}
	s.e.Insert(x)
	s.sen.observe(x)
	return nil
}

func (s *singleOwnerBase[E]) InsertBatch(items []Item) error {
	if s.closed {
		return ErrClosed
	}
	s.e.InsertBatch(items)
	s.sen.observeBatch(items)
	return nil
}

// Report additionally audits the result against the accuracy sentinel's
// shadow when one is installed.
func (s *singleOwnerBase[E]) Report() []ItemEstimate {
	rep := s.e.Report()
	s.sen.check(rep, s.e.Eps(), s.e.Phi())
	return rep
}

func (s *singleOwnerBase[E]) Len() uint64  { return s.e.Len() }
func (s *singleOwnerBase[E]) Eps() float64 { return s.e.Eps() }
func (s *singleOwnerBase[E]) Phi() float64 { return s.e.Phi() }

// Stats delegates to the engine and attaches the accuracy sentinel's
// audit snapshot when one is installed.
func (s *singleOwnerBase[E]) Stats() Stats {
	st := s.e.Stats()
	s.sen.attach(&st)
	return st
}

func (s *singleOwnerBase[E]) ModelBits() int64               { return s.e.ModelBits() }
func (s *singleOwnerBase[E]) MarshalBinary() ([]byte, error) { return s.e.MarshalBinary() }

// Close stops ingest; Report, Stats and MarshalBinary keep working,
// mirroring the sharded drain semantics. Idempotent.
func (s *singleOwnerBase[E]) Close() error {
	s.closed = true
	return nil
}

// serialHH is the adapter for known-length serial solvers; it adds the
// Merger and PointQuerier capabilities.
type serialHH struct{ singleOwnerBase[*serialSolver] }

// Estimate implements PointQuerier with the §3 per-item ε·m bound.
func (s *serialHH) Estimate(x Item) float64 { return s.e.Estimate(x) }

// CheckMerge implements Merger without mutating either solver.
func (s *serialHH) CheckMerge(checkpoint []byte) error {
	other, err := decodeSerialPeer(checkpoint)
	if err != nil {
		return err
	}
	return s.e.canMergeFrom(other)
}

// Merge implements Merger: it folds the checkpointed solver's state into
// the live one (DESIGN.md §7). A successful merge marks the accuracy
// sentinel incoherent — the folded stream was never sampled.
func (s *serialHH) Merge(checkpoint []byte) error {
	other, err := decodeSerialPeer(checkpoint)
	if err != nil {
		return err
	}
	if err := s.e.mergeFrom(other); err != nil {
		return err
	}
	s.sen.markForeign()
	return nil
}

// decodeSerialPeer decodes a checkpoint for serial merging, reporting
// container kind mismatches as incompatibilities rather than decode
// errors (checkMergeTag).
func decodeSerialPeer(checkpoint []byte) (*serialSolver, error) {
	if err := checkMergeTag(checkpoint, tagOptimal, tagSimple); err != nil {
		return nil, err
	}
	return unmarshalSerial(checkpoint)
}

// windowedHH adapts a single-owner *windowedSolver; it adds the
// Windower capability.
type windowedHH struct {
	singleOwnerBase[*windowedSolver]
}

// WindowStats implements Windower.
func (s *windowedHH) WindowStats() WindowStats { return s.e.WindowStats() }

// Window implements Windower.
func (s *windowedHH) Window() (w uint64, d time.Duration, buckets int) { return s.e.Window() }

// shardedHH is the adapter for known-length, non-windowed sharded
// containers; it adds the Merger (merge.go) and PointQuerier
// capabilities.
type shardedHH struct{ *shardedSolver }

// Estimate implements PointQuerier: hash partitioning routes every
// occurrence of x to one shard, so the owning shard's whole-stream
// estimate is the global one — no cross-shard combination is needed.
// A barrier, like Report.
func (s *shardedHH) Estimate(x Item) float64 {
	target := s.s.ShardOf(x)
	var est float64
	s.s.Do(func(i int, e shard.Engine) {
		if i == target {
			est = e.(*serialSolver).Estimate(x)
		}
	})
	return est
}

// shardedWindowedHH is the adapter for sharded containers whose shards
// run sliding windows; it adds the Windower capability (and, like every
// windowed solver, is deliberately not a Merger — DESIGN.md §8).
type shardedWindowedHH struct{ *shardedSolver }

// WindowStats implements Windower, summing the per-shard statistics.
func (s *shardedWindowedHH) WindowStats() WindowStats {
	st, _ := s.shardedSolver.WindowStats()
	return st
}
