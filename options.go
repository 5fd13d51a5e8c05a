package l1hh

// options.go — the functional-options half of the unified front door.
// Every construction scenario the package supports (serial known-m,
// unknown-m, sharded, windowed, sharded+windowed) is expressed as
// a combination of the Options below, resolved by New into one decorator
// stack (DESIGN.md §9). Unmarshal accepts the runtime subset of the same
// options, so checkpoint restores are tuned with the same vocabulary.

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/shard"
)

// Option configures New or Unmarshal. Options compose in any order; the
// engine stack they produce is canonical (DESIGN.md §9), so
// WithShards+WithCountWindow and WithCountWindow+WithShards build the
// same solver.
type Option func(*settings)

// Option-presence bits: validation distinguishes "not given" from "given
// as the zero value" (WithShards(0) asks for the default width; no
// WithShards asks for a serial solver).
const (
	optEps = 1 << iota
	optPhi
	optDelta
	optStreamLength
	optUniverse
	optAlgorithm
	optSeed
	optShards
	optQueueDepth
	optMaxBatch
	optCountWindow
	optTimeWindow
	optClock
	optSentinel
	optObserver
	optProblem
	optCandidates
)

// runtimeOpts are the options that tune a restored solver rather than
// defining the problem: everything else is serialized state and is
// rejected by Unmarshal. WithIngestObserver qualifies — instrumentation
// changes nothing the checkpoint records; WithAccuracySentinel does not
// (a restored solver's history was never sampled, so its shadow would
// report bogus violations).
const runtimeOpts = optQueueDepth | optMaxBatch | optClock | optObserver

// settings is the resolved option set New and Unmarshal dispatch on.
type settings struct {
	cfg           config
	shards        int
	queueDepth    int
	maxBatch      int
	window        uint64
	windowDur     time.Duration
	windowBuckets int
	clock         func() time.Time
	sentinelRate  float64
	timings       IngestTimings
	problem       Problem
	candidates    int

	set  uint32  // optXxx bits for every option applied
	errs []error // deferred per-option validation failures
}

func (st *settings) mark(bit uint32) { st.set |= bit }

func (st *settings) has(bit uint32) bool { return st.set&bit != 0 }

func (st *settings) failf(format string, args ...any) {
	st.errs = append(st.errs, fmt.Errorf(format, args...))
}

// sharded reports whether a concurrent sharded container was requested.
func (st *settings) sharded() bool { return st.has(optShards) }

// windowed reports whether a sliding window was requested.
func (st *settings) windowed() bool { return st.has(optCountWindow | optTimeWindow) }

// WithEps sets the additive error ε ∈ (0,1). Required: together with
// WithPhi it is the problem statement, and no default is universally
// safe. With a known stream length and AlgorithmOptimal, ε has a floor
// set by the solver's grid bound (see New): about 4·10⁻⁶ at ϕ = 0.05
// for one engine, K times that for K shards.
func WithEps(eps float64) Option {
	return func(st *settings) { st.cfg.Eps = eps; st.mark(optEps) }
}

// WithPhi sets the heaviness threshold ϕ ∈ (ε, 1]. Required.
func WithPhi(phi float64) Option {
	return func(st *settings) { st.cfg.Phi = phi; st.mark(optPhi) }
}

// WithDelta sets the failure probability δ ∈ (0,1). Default 0.05.
func WithDelta(delta float64) Option {
	return func(st *settings) { st.cfg.Delta = delta; st.mark(optDelta) }
}

// WithStreamLength declares the expected stream length m. Without it the
// solver runs the unknown-length machinery (Theorems 7/8), which is not
// serializable and not mergeable. With WithTimeWindow it is required and
// means the expected items per window; with WithCountWindow it is
// ignored (the window sizes the per-epoch solvers).
func WithStreamLength(m uint64) Option {
	return func(st *settings) {
		if m == 0 {
			st.failf("l1hh: WithStreamLength needs m > 0 (omit the option for unknown-length streams)")
			return
		}
		st.cfg.StreamLength = m
		st.mark(optStreamLength)
	}
}

// WithUniverse sets the universe size n; items are ids in [0, n).
// Default 2⁶².
func WithUniverse(n uint64) Option {
	return func(st *settings) { st.cfg.Universe = n; st.mark(optUniverse) }
}

// WithAlgorithm selects the solver engine (AlgorithmOptimal is the
// default). Small streams and small windows want AlgorithmSimple
// (DESIGN.md §8).
func WithAlgorithm(a Algorithm) Option {
	return func(st *settings) { st.cfg.Algorithm = a; st.mark(optAlgorithm) }
}

// WithSeed makes every random choice reproducible. Same-seed solvers on
// different nodes are what the merge tier folds. Default 0.
func WithSeed(seed uint64) Option {
	return func(st *settings) { st.cfg.Seed = seed; st.mark(optSeed) }
}

// WithShards requests the concurrent sharded container: the universe is
// hash-partitioned across k worker-owned engines, and any number of
// goroutines may insert concurrently. k = 0 means GOMAXPROCS. Without
// this option the solver is serial and single-owner.
func WithShards(k int) Option {
	return func(st *settings) {
		if k < 0 {
			st.failf("l1hh: WithShards needs k ≥ 0, got %d", k)
			return
		}
		st.shards = k
		st.mark(optShards)
	}
}

// WithQueueDepth sets the exact per-shard ingest queue capacity in
// batches (default 64, at most 2¹⁶); full queues block producers — that
// is the backpressure.
// Runtime tuning: valid on New with WithShards and on Unmarshal of
// sharded checkpoints.
func WithQueueDepth(depth int) Option {
	return func(st *settings) {
		if depth < 0 || depth > shard.MaxQueueDepth {
			st.failf("l1hh: WithQueueDepth needs depth in [0, %d], got %d", shard.MaxQueueDepth, depth)
			return
		}
		st.queueDepth = depth
		st.mark(optQueueDepth)
	}
}

// WithMaxBatch sets the items per shard batch (default 4096, at most
// 2²⁰): InsertBatch cuts its items into chunks of shards × n (at most
// 2²⁰), and each shard worker takes its own items of a chunk as one
// batch, about n on balanced traffic.
// Runtime tuning: valid on New with WithShards and on Unmarshal of
// sharded checkpoints.
func WithMaxBatch(n int) Option {
	return func(st *settings) {
		if n < 0 || n > shard.MaxBatchLimit {
			st.failf("l1hh: WithMaxBatch needs n in [0, %d], got %d", shard.MaxBatchLimit, n)
			return
		}
		st.maxBatch = n
		st.mark(optMaxBatch)
	}
}

// WithCountWindow slides a count-based window under every report: the
// solver answers for (at least) the last w items instead of the whole
// stream. buckets is the epoch granularity B (0 = 8): reports overshoot
// the window by at most one epoch, and B ≥ 2ϕ/ε keeps the (ε,ϕ) boundary
// clean against the window itself (DESIGN.md §8). Combined with
// WithShards, every shard windows its own substream (⌈w/k⌉ items each).
func WithCountWindow(w uint64, buckets int) Option {
	return func(st *settings) {
		if w == 0 {
			st.failf("l1hh: WithCountWindow needs w > 0")
			return
		}
		if buckets < 0 {
			st.failf("l1hh: WithCountWindow needs buckets ≥ 0, got %d", buckets)
			return
		}
		st.window = w
		st.windowBuckets = buckets
		st.mark(optCountWindow)
	}
}

// WithTimeWindow slides a time-based window of span d under every
// report; WithStreamLength then declares the expected items per window,
// which sizes the per-epoch solvers. buckets as in WithCountWindow.
// Mutually exclusive with WithCountWindow.
func WithTimeWindow(d time.Duration, buckets int) Option {
	return func(st *settings) {
		if d <= 0 {
			st.failf("l1hh: WithTimeWindow needs a positive duration, got %s", d)
			return
		}
		if buckets < 0 {
			st.failf("l1hh: WithTimeWindow needs buckets ≥ 0, got %d", buckets)
			return
		}
		st.windowDur = d
		st.windowBuckets = buckets
		st.mark(optTimeWindow)
	}
}

// WithClock overrides the wall clock a windowed solver reads (nil means
// time.Now): tests and simulations drive time windows deterministically.
// Runtime tuning — not serialized; also valid on Unmarshal of windowed
// checkpoints, so restored windows can resume on an injected clock.
func WithClock(now func() time.Time) Option {
	return func(st *settings) {
		if now == nil {
			st.failf("l1hh: WithClock needs a non-nil clock")
			return
		}
		st.clock = now
		st.mark(optClock)
	}
}

// IngestTimings carries optional stage-timing callbacks for the
// concurrent ingest path (WithIngestObserver). Hooks run on hot loops —
// EnqueueWait on every producer's dispatch, BatchApply on every shard
// worker's batch — so implementations must be cheap, lock-free and
// allocation-free (an atomic histogram observation, not a log line). A
// nil field disables that hook at the cost of one predictable branch.
type IngestTimings struct {
	// EnqueueWait observes, once per dispatched batch and shard queue,
	// how long InsertBatch blocked on that full queue; 0 (reported
	// without a clock read) when the queue had room. Sustained non-zero
	// waits mean the ingest rate exceeds what the shard workers drain.
	EnqueueWait func(d time.Duration)
	// BatchApply observes how long a shard worker spent on one
	// dispatched batch: picking out the items its shard owns, and
	// inserting them into its engine.
	BatchApply func(d time.Duration)
}

// WithIngestObserver installs stage-timing callbacks on the concurrent
// ingest path. Needs WithShards (serial solvers have no queues or
// workers to time). Runtime tuning: also valid on Unmarshal of sharded
// checkpoints (tags 3, 5) — instrumentation is never serialized.
func WithIngestObserver(t IngestTimings) Option {
	return func(st *settings) {
		st.timings = t
		st.mark(optObserver)
	}
}

// WithProblem selects which of the paper's problems the solver answers
// (default HeavyHittersProblem, which preserves the pre-problem-table
// behaviour exactly). Each problem has its own option vocabulary — the
// per-problem builder rejects options that do not apply (for example
// WithShards on a voting problem, or WithPhi on an extremes problem) —
// and its own capability set: Voter for BordaProblem/MaximinProblem,
// Extremes for MinFrequencyProblem/MaxFrequencyProblem, PointQuerier on
// the known-length heavy hitters engines. See the Problem constants.
func WithProblem(p Problem) Option {
	return func(st *settings) {
		if int(p) < 0 || int(p) >= len(problemSpecs) {
			st.failf("l1hh: WithProblem: unknown problem %d", int(p))
			return
		}
		st.problem = p
		st.mark(optProblem)
	}
}

// WithCandidates sets the number of candidates n for the voting
// problems (BordaProblem, MaximinProblem); votes are permutations of
// [0, n). Required by — and only valid with — those problems.
func WithCandidates(n int) Option {
	return func(st *settings) {
		if n <= 0 {
			st.failf("l1hh: WithCandidates needs n > 0, got %d", n)
			return
		}
		st.candidates = n
		st.mark(optCandidates)
	}
}

// WithAccuracySentinel enables the run-time accuracy audit: every
// occurrence is sampled into an exact shadow with probability rate ∈
// (0,1], and each Report is checked against the shadow's scaled truth —
// estimates outside ε·m plus a 3σ sampling-noise allowance, or ϕ-heavy
// shadow items missing from the report, count as guarantee violations
// (Stats.Sentinel, Stats.ObservedEps). Not available with windows (the
// shadow has no retirement machinery, so whole-stream truth would be
// compared against window-scoped reports) and not accepted by Unmarshal
// (a restored solver's history was never sampled). After a Merge the
// sentinel marks itself Incoherent and suspends auditing. DESIGN.md §10
// documents the statistics.
func WithAccuracySentinel(rate float64) Option {
	return func(st *settings) {
		if !(rate > 0 && rate <= 1) {
			st.failf("l1hh: WithAccuracySentinel needs a rate in (0,1], got %v", rate)
			return
		}
		st.sentinelRate = rate
		st.mark(optSentinel)
	}
}

// resolveOptions applies opts to a fresh settings value and validates
// the combination. Construction-level parameter ranges (ε, ϕ, δ bounds)
// are left to the engine constructors, which already enforce them; this
// layer rejects structurally impossible combinations.
func resolveOptions(opts []Option) (settings, error) {
	var st settings
	for _, o := range opts {
		if o == nil {
			return st, errors.New("l1hh: nil Option")
		}
		o(&st)
	}
	if len(st.errs) > 0 {
		return st, st.errs[0]
	}
	return st, nil
}

// validateNew checks the option combination for New (Unmarshal has its
// own, tag-driven rules), dispatching to the selected problem's
// validator — the problem-keyed builder table in problems.go. Callers
// that pre-validate option sets (the tenant pool) route through here,
// so every problem's rules extend to them automatically.
func (st *settings) validateNew() error {
	return problemSpecs[st.problem].validate(st)
}

// validateHeavyHitters is the HeavyHittersProblem validator: the full
// option vocabulary (shards, windows, sentinel, observer).
func (st *settings) validateHeavyHitters() error {
	if !st.has(optEps) {
		return errors.New("l1hh: WithEps is required")
	}
	if !st.has(optPhi) {
		return errors.New("l1hh: WithPhi is required")
	}
	if st.has(optCandidates) {
		return errors.New("l1hh: WithCandidates only applies to the voting problems (WithProblem(BordaProblem) or WithProblem(MaximinProblem))")
	}
	if st.has(optCountWindow) && st.has(optTimeWindow) {
		return errors.New("l1hh: WithCountWindow and WithTimeWindow are mutually exclusive")
	}
	if st.has(optTimeWindow) && !st.has(optStreamLength) {
		return errors.New("l1hh: WithTimeWindow needs WithStreamLength (the expected items per window)")
	}
	if st.has(optClock) && !st.windowed() {
		return errors.New("l1hh: WithClock needs a window (WithCountWindow or WithTimeWindow)")
	}
	if st.has(optQueueDepth|optMaxBatch) && !st.sharded() {
		return errors.New("l1hh: WithQueueDepth/WithMaxBatch need WithShards")
	}
	if st.has(optObserver) && !st.sharded() {
		return errors.New("l1hh: WithIngestObserver needs WithShards (serial solvers have no ingest pipeline to time)")
	}
	if st.has(optSentinel) && st.windowed() {
		return errors.New("l1hh: WithAccuracySentinel does not support windowed solvers (the shadow covers the whole stream, not the window)")
	}
	if !st.has(optUniverse) {
		st.cfg.Universe = 1 << 62
	}
	return nil
}
