package l1hh

// engines.go — the construction and restore path behind the front door
// (New / Unmarshal, solver.go). The decorator stack is canonical: the
// sharded container wraps per-shard engines, each of which is either a
// serial solver or a window of serial solvers (DESIGN.md §9).

import (
	"encoding"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/unknown"
	"repro/internal/window"
	"repro/internal/wire"
)

// Algorithm tags for serialized solvers.
const (
	tagOptimal byte = 1
	tagSimple  byte = 2
	// tagSharded marks a sharded container, whose frame nests per-shard
	// encodings that carry their own engine tags.
	tagSharded byte = 3
	// tagWindowed marks a windowed frame: window configuration plus the
	// bucket container, each bucket nesting a tagOptimal/tagSimple
	// solver encoding.
	tagWindowed byte = 4
	// tagShardedWindowed marks the v2 sharded container: the tagSharded
	// frame extended with the window geometry, nesting tagWindowed
	// per-shard encodings. Decoders accept both container versions;
	// encoders emit tagSharded when no window is configured, so
	// non-windowed checkpoints stay readable by older builds.
	tagShardedWindowed byte = 5
	// tagPool marks a multi-tenant pool checkpoint: a manifest of
	// per-tenant engine encodings (each nesting one of the tags above)
	// plus the pool's budget and counters. Restored by UnmarshalPool,
	// not Unmarshal — a pool is a container of solvers, not a solver.
	tagPool byte = 6
	// tagBorda and tagMaximin mark the voting problem engines
	// (WithProblem): the List threshold ϕ framing the sketch's own
	// encoding, which carries the remaining parameters.
	tagBorda   byte = 7
	tagMaximin byte = 8
	// tagMinimum and tagMaximum mark the frequency-extreme problem
	// engines; the inner encodings are fully self-describing, so the tag
	// prefixes them directly.
	tagMinimum byte = 9
	tagMaximum byte = 10
)

// taggedMarshal prefixes the engine tag to the engine's own encoding.
func taggedMarshal(tag byte, m encoding.BinaryMarshaler) ([]byte, error) {
	blob, err := m.MarshalBinary()
	if err != nil {
		return nil, err
	}
	return append([]byte{tag}, blob...), nil
}

// buildSerial constructs the serial solver for cfg: the known-length
// engines of Theorems 1–2, or the unknown-length machinery of Theorem 7
// when cfg.StreamLength is zero.
func buildSerial(cfg config) (*serialSolver, error) {
	cfg.fill()
	src := rng.New(cfg.Seed)
	ccfg := coreConfig(cfg)
	h := &serialSolver{eps: cfg.Eps, phi: cfg.Phi}
	var err error
	switch {
	case cfg.StreamLength == 0:
		// The staggering technique of Theorem 7 applies to Algorithm 1
		// (the paper notes it does not transfer to Algorithm 2).
		h.e, err = unknown.NewListHH(src, cfg.Eps, cfg.Phi, cfg.Delta, cfg.Universe)
	case cfg.Algorithm == AlgorithmOptimal:
		h.tag = tagOptimal
		h.e, err = core.NewOptimal(src, ccfg)
	case cfg.Algorithm == AlgorithmSimple:
		h.tag = tagSimple
		h.e, err = core.NewSimpleList(src, ccfg)
	default:
		return nil, errors.New("l1hh: unknown algorithm")
	}
	if err != nil {
		return nil, err
	}
	return h, nil
}

// coreConfig is the engine config buildSerial passes to the core
// constructors.
func coreConfig(cfg config) core.Config {
	return core.Config{
		Eps: cfg.Eps, Phi: cfg.Phi, Delta: cfg.Delta,
		M: cfg.StreamLength, N: cfg.Universe,
	}
}

// checkGrid refuses a solver of n serial engines built from cfg whose
// Algorithm 2 grids would hold more than core.MaxGridCells cells
// between them. Unmarshal refuses a checkpoint claiming more
// (checkGridBudget), so New refuses the solver rather than build one
// that cannot restore.
func checkGrid(cfg config, n int) error {
	if cfg.StreamLength == 0 || cfg.Algorithm != AlgorithmOptimal {
		return nil // only Algorithm 2 keeps grids
	}
	return core.CheckGrid(coreConfig(cfg), uint64(n))
}

// checkGridBudget refuses a container checkpoint (tag 3, 4 or 5) whose
// Algorithm 2 frames, its shards and window buckets, declare more than
// core.MaxGridCells grid cells between them. It reads frame headers
// only, so it refuses before any grid is allocated: a frame writes an
// all-zero row in a few bytes, and one non-zero cell allocates its
// grid's page table, so without it a short checkpoint nesting many
// frames could demand gigabytes. A lone tag-1 frame needs no scan,
// since its own decoder applies the bound.
func checkGridBudget(data []byte) error {
	if len(data) > 0 && data[0] == tagOptimal {
		return nil
	}
	cells, err := gridCells(data)
	if err != nil {
		return err
	}
	if cells > core.MaxGridCells {
		return fmt.Errorf("l1hh: checkpoint engines declare more than %d Algorithm 2 grid cells between them", core.MaxGridCells)
	}
	return nil
}

// gridCells sums core.FrameGridCells over the Algorithm 2 frames data
// nests at any depth, stopping once the sum passes core.MaxGridCells.
func gridCells(data []byte) (uint64, error) {
	if len(data) > 0 && data[0] == tagOptimal {
		return core.FrameGridCells(data[1:])
	}
	frames, err := nestedFrames(data)
	if err != nil {
		return 0, err
	}
	var sum uint64
	for _, f := range frames {
		c, err := gridCells(f)
		if err != nil {
			return 0, err
		}
		if sum += c; sum > core.MaxGridCells {
			break
		}
	}
	return sum, nil
}

// nestedFrames returns the engine frames a container nests: a sharded
// frame's shards, a windowed frame's live buckets, none for any other
// tag.
func nestedFrames(data []byte) ([][]byte, error) {
	if len(data) == 0 {
		return nil, nil
	}
	switch data[0] {
	case tagWindowed:
		_, blob, err := parseWindowed(data)
		if err != nil {
			return nil, err
		}
		return window.Blobs(blob)
	case tagSharded, tagShardedWindowed:
		_, snap, err := parseSharded(data)
		if err != nil {
			return nil, err
		}
		return shard.Blobs(snap)
	}
	return nil, nil
}

// unmarshalSerial reconstructs a known-length serial solver from a tag
// 1–2 encoding; the problem parameters are recovered from the engine
// state itself.
func unmarshalSerial(data []byte) (*serialSolver, error) {
	if len(data) < 2 {
		return nil, errors.New("l1hh: truncated solver encoding")
	}
	var e interface {
		hhEngine
		encoding.BinaryUnmarshaler
		Params() core.Config
	}
	switch data[0] {
	case tagOptimal:
		e = new(core.Optimal)
	case tagSimple:
		e = new(core.SimpleList)
	default:
		return nil, errors.New("l1hh: unrecognized solver encoding")
	}
	if err := e.UnmarshalBinary(data[1:]); err != nil {
		return nil, err
	}
	p := e.Params()
	return &serialSolver{e: e, tag: data[0], eps: p.Eps, phi: p.Phi}, nil
}

// minWindowEps is the smallest ε a windowed solver accepts: 2⁻¹³ ≈
// 1.2·10⁻⁴. Bucket engines are rebuilt from checkpoint frames
// (unmarshalWindowed feeds decoded parameters straight into the solver
// constructors), so the decode path must be able to bound the
// constructors' table allocations — a hostile frame with an absurdly
// small ε would otherwise demand gigabytes. The floor caps the
// per-bucket accelerated-counter tables at a few MB and is far below
// any ε a window-scale stream can support (DESIGN.md §8).
const minWindowEps = 1.0 / (1 << 13)

// windowEngineConfig derives the per-bucket solver config: every bucket
// runs the same engine with the same seed (the fold rules require
// identical random choices), declared at the maximum mass one report can
// cover — the window plus one epoch of slack. It also range-checks the
// problem parameters (rejecting NaN), because both the constructor and
// the checkpoint decoder route through it.
func windowEngineConfig(cfg windowConfig) (config, error) {
	c := cfg.config
	if !(c.Eps >= minWindowEps && c.Eps < 1) {
		return c, fmt.Errorf("l1hh: windowed solvers need ε in [2⁻¹³, 1), got %v", c.Eps)
	}
	if !(c.Phi > c.Eps && c.Phi <= 1) {
		return c, fmt.Errorf("l1hh: phi = %v out of (eps, 1]", c.Phi)
	}
	if c.Delta != 0 && !(c.Delta > 0 && c.Delta < 1) {
		return c, fmt.Errorf("l1hh: delta = %v out of (0,1)", c.Delta)
	}
	if cfg.Window > window.MaxLastN {
		// Also guards the slack ceil-division below against wraparound.
		return c, fmt.Errorf("l1hh: window %d exceeds the %d maximum", cfg.Window, uint64(window.MaxLastN))
	}
	b := cfg.WindowBuckets
	if b == 0 {
		b = window.DefaultBuckets
	}
	if b < 1 {
		return c, fmt.Errorf("l1hh: invalid window bucket count %d", b)
	}
	switch {
	case cfg.Window > 0:
		slack := (cfg.Window + uint64(b) - 1) / uint64(b)
		c.StreamLength = cfg.Window + slack
	case cfg.WindowDuration > 0:
		if c.StreamLength == 0 {
			return c, errors.New("l1hh: a time window needs a stream length (the expected items per window)")
		}
		slack := (c.StreamLength + uint64(b) - 1) / uint64(b)
		c.StreamLength += slack
	}
	return c, nil
}

// windowGrid checks the grids of n windows of cfg, each holding up to
// window.MaxLive bucket engines. A cfg windowEngineConfig refuses
// passes, for the caller to report.
func windowGrid(cfg windowConfig, n int) error {
	ecfg, err := windowEngineConfig(cfg)
	if err != nil {
		return nil
	}
	b := cfg.WindowBuckets
	if b == 0 {
		b = window.DefaultBuckets
	}
	return checkGrid(ecfg, n*window.MaxLive(b))
}

// buildWindowed constructs the sliding-window decorator: a window of
// serial engines, every bucket built from the same derived config.
func buildWindowed(cfg windowConfig) (*windowedSolver, error) {
	cfg.fill()
	ecfg, err := windowEngineConfig(cfg)
	if err != nil {
		return nil, err
	}
	if err := windowGrid(cfg, 1); err != nil {
		return nil, err
	}
	factory := func() (window.Engine, error) { return buildSerial(ecfg) }
	restorer := func(blob []byte) (window.Engine, error) { return unmarshalSerial(blob) }
	w, err := window.New(factory, restorer, window.Options{
		LastN:        cfg.Window,
		LastDuration: cfg.WindowDuration,
		Buckets:      cfg.WindowBuckets,
		Now:          cfg.Clock,
	})
	if err != nil {
		return nil, err
	}
	return &windowedSolver{w: w, cfg: cfg, eps: cfg.Eps, phi: cfg.Phi}, nil
}

// parseWindowed reads a tag-4 frame: the window configuration and the
// window snapshot it nests.
func parseWindowed(data []byte) (windowConfig, []byte, error) {
	var cfg windowConfig
	if len(data) < 1 || data[0] != tagWindowed {
		return cfg, nil, errors.New("l1hh: not a windowed solver encoding")
	}
	r := wire.NewReader(data[1:])
	cfg.Eps = r.F64()
	cfg.Phi = r.F64()
	cfg.Delta = r.F64()
	cfg.StreamLength = r.U64()
	cfg.Universe = r.U64()
	algo := r.U64()
	r.U64() // the retired per-insert budget, ignored
	cfg.Seed = r.U64()
	cfg.Window = r.U64()
	cfg.WindowDuration = time.Duration(r.I64())
	cfg.WindowBuckets = int(r.U64())
	blob := r.Blob()
	if r.Err() != nil {
		return cfg, nil, fmt.Errorf("l1hh: corrupt windowed encoding: %w", r.Err())
	}
	if !r.Done() {
		return cfg, nil, errors.New("l1hh: trailing bytes after windowed encoding")
	}
	if algo > uint64(AlgorithmSimple) {
		return cfg, nil, fmt.Errorf("l1hh: unknown algorithm %d in windowed encoding", algo)
	}
	cfg.Algorithm = Algorithm(algo)
	return cfg, blob, nil
}

// unmarshalWindowed reconstructs a windowed solver from a tag-4
// encoding. clock overrides the wall clock the restored window runs on
// (nil means time.Now); time-based windows then retire what aged out
// while the checkpoint sat on disk on the first operation. The window
// builds bucket engines from the frame's config as it slides, so the
// frame must pass the grid bound New applies.
func unmarshalWindowed(data []byte, clock func() time.Time) (*windowedSolver, error) {
	cfg, blob, err := parseWindowed(data)
	if err != nil {
		return nil, err
	}
	cfg.Clock = clock
	ecfg, err := windowEngineConfig(cfg)
	if err != nil {
		return nil, err
	}
	if err := windowGrid(cfg, 1); err != nil {
		return nil, err
	}
	factory := func() (window.Engine, error) { return buildSerial(ecfg) }
	restorer := func(b []byte) (window.Engine, error) { return unmarshalSerial(b) }
	w, err := window.Restore(blob, factory, restorer, window.Options{Now: clock})
	if err != nil {
		return nil, err
	}
	// The geometry is encoded twice: in this frame (it sizes the bucket
	// engines above) and in the window snapshot (it drives retirement).
	// A tampered blob could make them disagree — mis-sized engines and
	// lying metadata — so reject any mismatch.
	lastN, lastDur, buckets := w.Geometry()
	if lastN != cfg.Window || lastDur != cfg.WindowDuration ||
		(cfg.WindowBuckets != 0 && buckets != cfg.WindowBuckets) ||
		(cfg.WindowBuckets == 0 && buckets != window.DefaultBuckets) {
		return nil, errors.New("l1hh: window geometry mismatch between frame and snapshot")
	}
	return &windowedSolver{w: w, cfg: cfg, eps: cfg.Eps, phi: cfg.Phi}, nil
}

// splitCountWindow is the per-shard count window ⌈w/k⌉ — the one place
// the split policy is defined. The shard-engine constructor
// (shardWindowConfig) sizes the actual windows with it, and the Stats
// geometry (WindowStats.PerShardWindow, surfaced by hhd's /report)
// reads the same function, so the advertised split can never diverge
// from the running one.
func splitCountWindow(w uint64, shards int) uint64 {
	if w == 0 || shards <= 0 {
		return 0
	}
	return (w + uint64(shards) - 1) / uint64(shards)
}

// shardWindowConfig derives one shard's window geometry: a count window
// splits ⌈W/K⌉ per shard (hash partitioning spreads the last W global
// items ≈ evenly, so per-shard suffixes union to ≈ the global suffix); a
// time window keeps the same wall-clock span on every shard. clock
// overrides every shard window's clock (nil means time.Now).
func shardWindowConfig(cfg shardedConfig, ecfg config, total int, clock func() time.Time) windowConfig {
	return windowConfig{
		config:         ecfg,
		Window:         splitCountWindow(cfg.Window, total),
		WindowDuration: cfg.WindowDuration,
		WindowBuckets:  cfg.WindowBuckets,
		Clock:          clock,
	}
}

// shardEngineConfig derives one shard's solver config from the global
// problem: same (ε, ϕ), failure probability split δ/K so a union bound
// covers all shards, and — deliberately — the *global* declared stream
// length m, not m/K.
//
// Declaring m/K per shard (the pre-PR-7 rule) looked natural but
// multiplied per-item work instead of dividing it: Algorithm 2 samples
// at rate p = min(1, ℓ/M) with ℓ = Θ(1/ε²), and at production settings
// (m = 2²², K = 4, ε = 0.01) the per-shard declaration m/K drops below
// ℓ, pinning every shard at p = 1 — all K shards together process ≈ K·ℓ
// samples where the serial solver processes ℓ, so sharded ingest cost
// 3.5× serial (the E8 regression). Declaring the global m keeps the
// aggregate sample budget at ℓ regardless of K.
//
// Accuracy is preserved (DESIGN.md §3): each shard's additive error is
// ε·M relative to its *declared* length M = m, which is exactly the ε·m
// the container's global (ϕ − ε/2)·m report threshold budgets for, and
// a shard receiving fewer than m items only ever oversamples relative
// to its substream. Skew is also safer than under m/K: no shard can
// receive more than the global m, so the declared length is never an
// underestimate.
func shardEngineConfig(cfg config, total int, seed uint64) config {
	c := cfg
	c.Delta = cfg.Delta / float64(total)
	c.Seed = seed
	return c
}

// buildSharded constructs the concurrent container: per-shard engine
// seeds and the partition-hash seed all derive from cfg.Seed, so a fixed
// (Seed, Shards) pair is fully reproducible. With the Window fields set,
// every shard runs a sliding window over its substream (built on clock;
// nil means time.Now). hooks are the optional ingest stage-timing
// callbacks (WithIngestObserver); the zero value disables them.
func buildSharded(cfg shardedConfig, clock func() time.Time, hooks shard.Hooks) (*shardedSolver, error) {
	cfg.fill()
	if cfg.Window > 0 && cfg.WindowDuration > 0 {
		return nil, errors.New("l1hh: Window and WindowDuration are mutually exclusive")
	}
	if cfg.WindowDuration < 0 {
		// Silently building a whole-stream engine here would leave the
		// caller believing reports are windowed.
		return nil, fmt.Errorf("l1hh: negative WindowDuration %s", cfg.WindowDuration)
	}
	if cfg.Window > window.MaxLastN {
		// Guards the per-shard ⌈W/K⌉ split against uint64 wraparound.
		return nil, fmt.Errorf("l1hh: window %d exceeds the %d maximum", cfg.Window, uint64(window.MaxLastN))
	}
	opts := shard.Options{
		Shards:     cfg.Shards,
		QueueDepth: cfg.QueueDepth,
		MaxBatch:   cfg.MaxBatch,
		Hooks:      hooks,
	}
	seeds := rng.New(cfg.Seed)
	opts.Seed = seeds.Uint64()
	factory := func(i, total int) (shard.Engine, error) {
		ecfg := shardEngineConfig(cfg.config, total, seeds.Uint64())
		if !cfg.windowed() {
			if err := checkGrid(ecfg, total); err != nil {
				return nil, err
			}
			return buildSerial(ecfg)
		}
		wcfg := shardWindowConfig(cfg, ecfg, total, clock)
		if err := windowGrid(wcfg, total); err != nil {
			return nil, err
		}
		return buildWindowed(wcfg)
	}
	s, err := shard.New(factory, opts)
	if err != nil {
		return nil, err
	}
	return &shardedSolver{
		s: s, eps: cfg.Eps, phi: cfg.Phi,
		window: cfg.Window, windowDur: cfg.WindowDuration, windowBuckets: cfg.WindowBuckets,
	}, nil
}

// unmarshalSharded reconstructs a sharded container from a tag 3 or 5
// encoding; the restored solver continues the stream exactly where the
// original stopped, with identical routing. QueueDepth and MaxBatch are
// runtime tuning, not serialized state — pass zero for the defaults.
// clock overrides restored shard windows' clocks (tag 5 only); hooks
// re-install the ingest stage-timing callbacks (WithIngestObserver),
// runtime instrumentation that is never serialized.
func unmarshalSharded(data []byte, queueDepth, maxBatch int, clock func() time.Time, hooks shard.Hooks) (*shardedSolver, error) {
	h, snap, err := parseSharded(data)
	if err != nil {
		return nil, err
	}
	// The container tag must agree with the nested engine types, and a
	// windowed container's frame geometry with each shard's own window
	// record — otherwise a crafted checkpoint restores with Windowed()
	// and WindowStats lying about what reports actually cover.
	s, err := shard.Restore(snap, func(i, total int, blob []byte) (shard.Engine, error) {
		if len(blob) >= 1 && blob[0] == tagWindowed {
			if !h.Windowed() {
				return nil, errors.New("l1hh: windowed shard engine inside a non-windowed container")
			}
			w, err := unmarshalWindowed(blob, clock)
			if err != nil {
				return nil, err
			}
			if err := windowGrid(w.cfg, total); err != nil {
				return nil, err
			}
			want := shardWindowConfig(shardedConfig{
				Window: h.window, WindowDuration: h.windowDur, WindowBuckets: h.windowBuckets,
			}, w.cfg.config, total, nil)
			if w.cfg.Window != want.Window || w.cfg.WindowDuration != want.WindowDuration ||
				w.cfg.WindowBuckets != want.WindowBuckets {
				return nil, errors.New("l1hh: shard window geometry disagrees with the container frame")
			}
			return w, nil
		}
		if h.Windowed() {
			return nil, errors.New("l1hh: plain shard engine inside a windowed container")
		}
		return unmarshalSerial(blob)
	}, shard.Options{QueueDepth: queueDepth, MaxBatch: maxBatch, Hooks: hooks})
	if err != nil {
		return nil, err
	}
	h.s = s
	return h, nil
}

// parseSharded reads a tag 3 or 5 frame: the container's problem
// parameters, its window geometry (tag 5 only) and the shard snapshot
// it nests.
func parseSharded(data []byte) (*shardedSolver, []byte, error) {
	if len(data) < 1 || (data[0] != tagSharded && data[0] != tagShardedWindowed) {
		return nil, nil, errors.New("l1hh: not a sharded solver encoding")
	}
	r := wire.NewReader(data[1:])
	h := &shardedSolver{}
	h.eps = r.F64()
	h.phi = r.F64()
	if data[0] == tagShardedWindowed {
		h.window = r.U64()
		h.windowDur = time.Duration(r.I64())
		h.windowBuckets = int(r.U64())
	}
	snap := r.Blob()
	if r.Err() != nil {
		return nil, nil, fmt.Errorf("l1hh: corrupt sharded encoding: %w", r.Err())
	}
	if !r.Done() {
		return nil, nil, errors.New("l1hh: trailing bytes after sharded encoding")
	}
	if data[0] == tagShardedWindowed && !h.Windowed() {
		return nil, nil, errors.New("l1hh: windowed container encodes no window geometry")
	}
	return h, snap, nil
}
