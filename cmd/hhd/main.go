// hhd is the heavy hitters streaming daemon: a sharded l1hh engine
// behind HTTP, ingesting batches concurrently across hash-partitioned
// solver shards and answering merged reports.
//
// Endpoints:
//
//	POST /ingest      binary (application/octet-stream, LE uint64s) or
//	                  NDJSON (bare ids, or {"item":N,"count":K}) batches;
//	                  with -shed-wait, saturated shard queues answer 429 +
//	                  Retry-After and an "accepted" prefix count instead
//	                  of blocking; bodies over -max-ingest-bytes answer 413
//	GET  /report      heavy hitters with estimates, global thresholds;
//	                  always carries the effective (eps, phi) and the
//	                  stream length it answered for, plus window coverage
//	                  (with -window/-window-duration) and the merged
//	                  state's age (in aggregator mode) so clients can
//	                  detect stale reports
//	POST /checkpoint  serialized engine state (application/octet-stream)
//	POST /merge       fold a peer node's checkpoint into the live engine
//	POST /restore     swap in a previously checkpointed state
//	POST /vote        ballot ingest (-problem borda|maximin): NDJSON,
//	                  one ballot per line — a bare JSON array of
//	                  candidate ids, most preferred first, or
//	                  {"ranking": [...], "count": k}
//	GET  /winner      the current voting winner, every candidate's
//	                  score estimate, and the (ε,ϕ)-List answer at the
//	                  engine's threshold (known stream length)
//	GET  /extremes    the frequency extreme the engine tracks
//	                  (-problem minfreq|maxfreq) with its ε·m error bar
//	GET  /point?item=N  the item's frequency estimate with the §3
//	                  additive ε·m bound (known-length heavy hitters)
//	GET  /stats       the engine's operational snapshot (items, len,
//	                  eps, phi, model bits, sentinel audit)
//	GET  /healthz     liveness: 200 whenever the process can answer
//	GET  /readyz      readiness: 503 while draining, and on an
//	                  aggregator until the first complete peer pull
//	GET  /metrics     every hhd_* metric family as one JSON object
//	                  keyed by family name (README.md lists them);
//	                  ?format=prometheus renders the same registry in
//	                  Prometheus text exposition format v0.0.4
//
// Multi-tenant mode: -tenants swaps the single engine for a
// tenant-keyed engine pool and serves the engine endpoints above —
// ingest, report, checkpoint, stats, vote, winner, extremes, point —
// under /t/{tenant}/ only (tenant names are URL path segments,
// percent-escaped as needed, at most 512 bytes decoded). No default
// engine is built: the root engine routes, /merge and /restore answer
// 404, and /healthz, /readyz and /metrics stay. A write creates the
// tenant's engine on first touch from the problem flags (serial, so
// -shards, -queue-depth and -max-batch are refused); a read never does,
// and answers 404 for an unknown tenant. A tenant checkpoint is
// exportable through l1hh.Unmarshal.
//
// -tenant-budget-bits caps the summed model bits of resident engines;
// past it the pool checkpoints least-recently-used tenants out to the
// spill store (-spill-dir, or in-memory) and revives them transparently
// on their next touch. -sentinel-tenant NAME pins one tenant with an
// accuracy sentinel at the -sentinel rate. With -checkpoint-dir the
// snapshots cover the whole pool (every serializable tenant). The
// metrics gain hhd_pool{field=...} and the pool_spill / pool_revive
// stage histograms, and lose the engine families (hhd_items_total,
// hhd_model_bits, hhd_shards, hhd_queue_depth, hhd_window,
// hhd_sentinel, hhd_guarantee_violations_total): hhd_pool carries
// items_total and model_bits_in_use. -peers is incompatible: pool
// states are per-node and do not merge, so the merge families
// (hhd_merges_total, hhd_merge_errors_total, hhd_merge_latency_seconds,
// hhd_merge_staleness_seconds, hhd_peers) are absent too.
//
// Observability: -log-format text|json and -log-level pick the slog
// handler (debug turns on the per-request access log, one line per
// request with an X-Request-Id echo); -pprof ADDR serves net/http/pprof
// on a separate mux; -sentinel RATE audits every report against a
// sampled exact shadow and counts (ε,ϕ)-guarantee violations.
//
// The daemon is built entirely on the unified l1hh front door: flags
// become l1hh.New options, /restore goes through l1hh.Unmarshal, and the
// handlers discover what the engine can do by asserting the capability
// interfaces (l1hh.Merger, l1hh.Windower, l1hh.Sharder, l1hh.Voter,
// l1hh.Extremes, l1hh.PointQuerier) — never by naming concrete solver
// types.
//
// Related problems: -problem picks what the engine solves — hh (the
// default), borda or maximin (rank aggregation over -candidates
// candidates; ingest moves from /ingest to /vote, queries to /winner),
// minfreq or maxfreq (frequency extremes; query /extremes). The
// problem engines are single-owner, so the daemon serializes their
// handlers; -shards, -algo, windows and the sentinel do not apply, and
// /merge answers 409 except for Borda (linear tallies fold — so
// -peers works for borda too). Checkpoints carry the problem (tags
// 7–10) and /restore refuses a blob answering a different problem
// family than the daemon was started for. With -tenants, every tenant
// engine solves the chosen problem and /t/{tenant}/vote, winner,
// extremes and point apply; voting tenants spill and revive under the
// shared budget like any other (DESIGN.md §14).
//
// Sliding windows: -window N answers for (at least) the last N items,
// -window-duration D for the last D of wall time (then -m is the
// expected items per window, globally). With shards > 1, count-window
// reports are rate-extrapolated: each shard's estimates are scaled by
// its measured share of recent traffic before the global threshold, so
// a dominant item no longer shrinks its own shard's window out of the
// report and stale shards are down-weighted (DESIGN.md §8). Reports and
// checkpoints carry the window; cluster mode is incompatible with
// windows — two nodes' windows cover different wall-clock slices, so
// their states do not merge (DESIGN.md §8).
//
// Cluster mode: run one worker per ingest node and one aggregator with
// -peers; the aggregator pulls every worker's /checkpoint each
// -pull-every, folds them into a fresh engine, and serves the merged
// global /report. All nodes must share the problem flags (-eps -phi
// -delta -m -universe -shards -algo -seed) — identical seeds are what
// make the states foldable. -m is the GLOBAL expected stream length.
//
// Durability: -checkpoint-dir DIR starts the async checkpoint
// coordinator — a background worker that snapshots the engine every
// -checkpoint-every, publishes each snapshot atomically (write to a
// temp file, fsync, rename), prunes past -checkpoint-retain, and on
// startup resumes from the newest snapshot that validates, skipping
// torn or corrupt frames. A crash (SIGKILL, OOM) therefore loses at
// most one checkpoint interval of acknowledged items; DESIGN.md §12
// spells out the contract and test/e2e pins it against a real process
// kill. It is the one durability path: POST /checkpoint exports a raw
// blob for l1hh.Unmarshal, but nothing else writes state to disk.
//
// Shutdown on SIGINT/SIGTERM is graceful: stop accepting requests, drain
// every shard queue, and (with -checkpoint-dir) write a final snapshot,
// so a restart with the same flag resumes the stream where it stopped.
//
// Usage:
//
//	hhd -addr :8080 -eps 0.01 -phi 0.05 -m 100000000 -shards 8
//	curl -X POST --data-binary @ids.u64le -H 'Content-Type: application/octet-stream' localhost:8080/ingest
//	curl localhost:8080/report
//
//	# two workers + aggregator
//	hhd -addr :8081 -m 100000000 -seed 9 &
//	hhd -addr :8082 -m 100000000 -seed 9 &
//	hhd -addr :8080 -m 100000000 -seed 9 -peers http://localhost:8081,http://localhost:8082 -pull-every 5s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	l1hh "repro"
	"repro/internal/ckpt"
)

var (
	addrFlag       = flag.String("addr", ":8080", "listen address")
	epsFlag        = flag.Float64("eps", 0.01, "additive error ε")
	phiFlag        = flag.Float64("phi", 0.05, "heaviness threshold ϕ")
	deltaFlag      = flag.Float64("delta", 0.05, "failure probability δ")
	mFlag          = flag.Uint64("m", 0, "expected stream length (0 = unknown; disables checkpointing)")
	universeFlag   = flag.Uint64("universe", 1<<62, "universe size; ids in [0, universe)")
	shardsFlag     = flag.Int("shards", 0, "shard count (0 = GOMAXPROCS; refused with -tenants, whose engines are serial)")
	algoFlag       = flag.String("algo", "optimal", "engine: optimal or simple")
	problemFlag    = flag.String("problem", "hh", "problem the engine solves: hh (heavy hitters), borda, maximin, minfreq, maxfreq (DESIGN.md §14); non-hh problems run a single-owner engine, so -shards, -algo, windows and the sentinel do not apply")
	candidatesFlag = flag.Int("candidates", 0, "number of candidates for the voting problems (-problem borda|maximin); ballots are permutations of [0, candidates)")
	seedFlag       = flag.Uint64("seed", 1, "RNG seed")
	queueFlag      = flag.Int("queue-depth", 0, "per-shard queue depth in batches (0 = default, at most 65536; refused with -tenants)")
	batchFlag      = flag.Int("max-batch", 0, "items per shard batch; dispatch chunks hold shards × this (0 = default, at most 1048576; refused with -tenants)")
	ckptDirFlag    = flag.String("checkpoint-dir", "", "snapshot directory for the async checkpoint coordinator: resumed from on start, written to every -checkpoint-every while serving and once more on shutdown")
	ckptEveryFlag  = flag.Duration("checkpoint-every", 30*time.Second, "checkpoint coordinator snapshot interval (with -checkpoint-dir)")
	ckptRetainFlag = flag.Int("checkpoint-retain", 4, "how many snapshots -checkpoint-dir keeps; older ones are pruned")
	shedWaitFlag   = flag.Duration("shed-wait", 100*time.Millisecond, "how long /ingest may wait on saturated shard queues before shedding with 429 + Retry-After (0 = block indefinitely, the pre-shedding behavior)")
	maxBodyFlag    = flag.Int64("max-ingest-bytes", 0, "largest /ingest or /vote request body in bytes; bigger requests answer 413 (0 = unlimited)")
	windowFlag     = flag.Uint64("window", 0, "count-based sliding window: report the heavy hitters of (at least) the last N items (0 = whole stream)")
	windowDurFlag  = flag.Duration("window-duration", 0, "time-based sliding window: report the heavy hitters of (at least) the last D of wall time; -m becomes the expected items per window")
	windowBktFlag  = flag.Int("window-buckets", 0, "window epoch granularity: the report overshoots the window by at most one epoch (0 = default 8)")
	peersFlag      = flag.String("peers", "", "comma-separated worker base URLs (e.g. http://a:8080,http://b:8080); enables aggregator mode: pull each worker's /checkpoint periodically and serve the merged global /report")
	pullFlag       = flag.Duration("pull-every", 10*time.Second, "aggregator pull interval (with -peers)")
	sentinelFlag   = flag.Float64("sentinel", 0, "accuracy sentinel sample rate in (0,1]: audit every report against a sampled exact shadow (0 = off; incompatible with windows; with -tenants it applies to -sentinel-tenant)")
	tenantsFlag    = flag.Bool("tenants", false, "multi-tenant mode: serve per-tenant engines under /t/{tenant}/... backed by a shared-budget pool with LRU spill/revive (DESIGN.md §13) instead of a single engine at the root routes")
	tenantBudget   = flag.Int64("tenant-budget-bits", 0, "shared model-bits budget across resident tenant engines; past it least-recently-used tenants are checkpointed out to the spill store (0 = unlimited; requires -tenants)")
	spillDirFlag   = flag.String("spill-dir", "", "directory evicted tenants spill to, one file per tenant; default is an in-memory store that does not survive the process (requires -tenants)")
	sentTenantFlag = flag.String("sentinel-tenant", "", "tenant audited by the accuracy sentinel at the -sentinel rate; the tenant is pinned resident (requires -tenants and -sentinel > 0)")
	logFormatFlag  = flag.String("log-format", "text", "log output format: text or json")
	logLevelFlag   = flag.String("log-level", "info", "minimum log level: debug, info, warn, error (debug enables the per-request access log)")
	pprofFlag      = flag.String("pprof", "", "serve net/http/pprof on this address, on a mux separate from the API (empty = disabled)")
)

func main() {
	flag.Parse()
	if err := setupLogging(*logFormatFlag, *logLevelFlag); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if err := run(); err != nil {
		slog.Error("hhd exiting", "err", err)
		os.Exit(1)
	}
}

// setupLogging installs the process-wide slog handler per the -log-*
// flags. JSON output is for log pipelines; text for terminals.
func setupLogging(format, level string) error {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	var h slog.Handler
	switch format {
	case "text":
		h = slog.NewTextHandler(os.Stderr, opts)
	case "json":
		h = slog.NewJSONHandler(os.Stderr, opts)
	default:
		return fmt.Errorf("bad -log-format %q (want text or json)", format)
	}
	slog.SetDefault(slog.New(h))
	return nil
}

// parseProblem maps the -problem flag onto the front door's Problem
// constants.
func parseProblem(name string) (l1hh.Problem, error) {
	switch name {
	case "hh", "heavy-hitters":
		return l1hh.HeavyHittersProblem, nil
	case "borda":
		return l1hh.BordaProblem, nil
	case "maximin":
		return l1hh.MaximinProblem, nil
	case "minfreq", "min-frequency":
		return l1hh.MinFrequencyProblem, nil
	case "maxfreq", "max-frequency":
		return l1hh.MaxFrequencyProblem, nil
	}
	return 0, fmt.Errorf("unknown -problem %q (want hh, borda, maximin, minfreq or maxfreq)", name)
}

// problemOptions is the option set for a non-default -problem: exactly
// the flags in that problem's vocabulary — the front door rejects
// anything else, and run() has already refused the explicitly-set
// strays so a default value never smuggles through as configuration.
func problemOptions(problem l1hh.Problem) []l1hh.Option {
	opts := []l1hh.Option{
		l1hh.WithProblem(problem),
		l1hh.WithEps(*epsFlag),
		l1hh.WithDelta(*deltaFlag),
		l1hh.WithSeed(*seedFlag),
	}
	switch problem {
	case l1hh.BordaProblem, l1hh.MaximinProblem:
		opts = append(opts, l1hh.WithPhi(*phiFlag), l1hh.WithCandidates(*candidatesFlag))
	case l1hh.MinFrequencyProblem, l1hh.MaxFrequencyProblem:
		opts = append(opts, l1hh.WithUniverse(*universeFlag))
	}
	if *mFlag > 0 {
		opts = append(opts, l1hh.WithStreamLength(*mFlag))
	}
	return opts
}

// engineOptions is the one option list every engine hhd builds starts
// from. Each tenant engine (-tenants) uses it as is, and specFromFlags
// extends it with the default engine's shard pipeline and sentinel.
// Tenant engines are serial — the pool already serializes per-tenant
// operations, and an unsharded sketch is the cheapest resident under
// the shared budget — which is why validateTenantFlags refuses the
// shard-pipeline flags; their sentinel attaches per tenant
// (-sentinel-tenant). A non-default -problem takes exactly its own
// vocabulary (problemOptions), and its checkpoints (tags 7–10) spill
// and revive through the pool's Restorer like any other spillable
// engine.
func engineOptions(algo l1hh.Algorithm, problem l1hh.Problem) []l1hh.Option {
	if problem != l1hh.HeavyHittersProblem {
		return problemOptions(problem)
	}
	opts := []l1hh.Option{
		l1hh.WithEps(*epsFlag),
		l1hh.WithPhi(*phiFlag),
		l1hh.WithDelta(*deltaFlag),
		l1hh.WithUniverse(*universeFlag),
		l1hh.WithAlgorithm(algo),
		l1hh.WithSeed(*seedFlag),
	}
	if *mFlag > 0 {
		opts = append(opts, l1hh.WithStreamLength(*mFlag))
	}
	switch {
	case *windowFlag > 0:
		opts = append(opts, l1hh.WithCountWindow(*windowFlag, *windowBktFlag))
	case *windowDurFlag > 0:
		opts = append(opts, l1hh.WithTimeWindow(*windowDurFlag, *windowBktFlag))
	}
	return opts
}

// specFromFlags translates the command line into the option sets the
// unified front door understands, for the default engine (without
// -tenants).
func specFromFlags(algo l1hh.Algorithm, problem l1hh.Problem) engineSpec {
	spec := engineSpec{build: engineOptions(algo, problem), problem: problem}
	if problem != l1hh.HeavyHittersProblem {
		return spec
	}
	spec.build = append(spec.build, l1hh.WithShards(*shardsFlag))
	if *queueFlag > 0 {
		spec.build = append(spec.build, l1hh.WithQueueDepth(*queueFlag))
		spec.restore = append(spec.restore, l1hh.WithQueueDepth(*queueFlag))
	}
	if *batchFlag > 0 {
		spec.build = append(spec.build, l1hh.WithMaxBatch(*batchFlag))
		spec.restore = append(spec.restore, l1hh.WithMaxBatch(*batchFlag))
	}
	if *sentinelFlag > 0 {
		// Audit-only runtime state, never serialized: build-path only.
		// A resumed engine therefore comes back without a sentinel (its
		// shadow would be incoherent with the restored counts anyway).
		spec.build = append(spec.build, l1hh.WithAccuracySentinel(*sentinelFlag))
	}
	return spec
}

// validateProblemFlags refuses flag combinations outside the chosen
// problem's vocabulary. The front door would reject most of them too
// (WithProblem validates the whole option set), but catching the
// explicitly-set strays here distinguishes "you passed -shards" from a
// default value the spec simply never forwards. set holds the names of
// the flags given on the command line.
func validateProblemFlags(problem l1hh.Problem, set map[string]bool) error {
	voting := problem == l1hh.BordaProblem || problem == l1hh.MaximinProblem
	if problem == l1hh.HeavyHittersProblem {
		if set["candidates"] {
			return errors.New("-candidates only applies to the voting problems (-problem borda|maximin)")
		}
		return nil
	}
	for _, name := range []string{
		"shards", "algo", "queue-depth", "max-batch",
		"window", "window-duration", "window-buckets",
		"sentinel", "sentinel-tenant",
	} {
		if set[name] {
			return fmt.Errorf("-%s does not apply to -problem %s: the problem engines are single-owner, unsharded and unwindowed (DESIGN.md §14)", name, problem)
		}
	}
	if voting {
		if *candidatesFlag <= 0 {
			return fmt.Errorf("-problem %s requires -candidates (ballots are permutations of [0, candidates))", problem)
		}
		if set["universe"] {
			return fmt.Errorf("-universe does not apply to -problem %s: ballots range over the candidates, not the item universe", problem)
		}
		if set["peers"] && problem != l1hh.BordaProblem {
			return errors.New("-peers requires mergeable states: Borda tallies fold, maximin's sampled tallies do not (DESIGN.md §14)")
		}
	} else {
		if set["candidates"] {
			return fmt.Errorf("-candidates does not apply to -problem %s", problem)
		}
		if set["phi"] {
			return fmt.Errorf("-phi does not apply to -problem %s: the extremes problems have no heaviness threshold", problem)
		}
		if set["peers"] {
			return fmt.Errorf("-peers does not apply to -problem %s: extremes states do not merge", problem)
		}
	}
	return nil
}

// validateTenantFlags refuses, under -tenants, the flags that only ever
// configured the default engine's shard pipeline: tenant mode builds no
// default engine, and tenant engines are serial. set holds the names of
// the flags given on the command line.
func validateTenantFlags(set map[string]bool) error {
	for _, name := range []string{"shards", "queue-depth", "max-batch"} {
		if set[name] {
			return fmt.Errorf("-%s does not apply with -tenants: there is no default engine, and tenant engines are serial", name)
		}
	}
	return nil
}

func run() error {
	algo := l1hh.AlgorithmOptimal
	switch *algoFlag {
	case "optimal":
	case "simple":
		algo = l1hh.AlgorithmSimple
	default:
		return fmt.Errorf("unknown -algo %q", *algoFlag)
	}
	problem, err := parseProblem(*problemFlag)
	if err != nil {
		return err
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateProblemFlags(problem, set); err != nil {
		return err
	}
	if *windowFlag > 0 && *windowDurFlag > 0 {
		return errors.New("-window and -window-duration are mutually exclusive")
	}
	if *windowDurFlag > 0 && *mFlag == 0 {
		return errors.New("-window-duration requires -m (the expected items per window), which sizes the per-epoch solvers")
	}
	windowed := *windowFlag > 0 || *windowDurFlag > 0
	if *ckptDirFlag != "" {
		if *mFlag == 0 && *windowFlag == 0 {
			return errors.New("-checkpoint-dir requires a known stream length (-m > 0): unknown-length solvers are not serializable")
		}
		if *ckptEveryFlag <= 0 {
			return errors.New("-checkpoint-every must be positive")
		}
	}
	if *ckptRetainFlag < 1 {
		return errors.New("-checkpoint-retain must be at least 1")
	}
	if *shedWaitFlag < 0 {
		return errors.New("-shed-wait must be non-negative")
	}
	if *maxBodyFlag < 0 {
		return errors.New("-max-ingest-bytes must be non-negative")
	}
	var peers []string
	if *peersFlag != "" {
		if windowed {
			return errors.New("-peers is incompatible with sliding windows: windowed states are not mergeable (DESIGN.md §8)")
		}
		if *mFlag == 0 {
			return errors.New("-peers requires a known stream length (-m > 0): cluster merging works on checkpoints")
		}
		if *pullFlag <= 0 {
			return errors.New("-pull-every must be positive")
		}
		for _, p := range strings.Split(*peersFlag, ",") {
			if p = strings.TrimSpace(strings.TrimSuffix(p, "/")); p != "" {
				peers = append(peers, p)
			}
		}
		if len(peers) == 0 {
			return errors.New("-peers lists no usable URLs")
		}
	}
	if *sentinelFlag < 0 || *sentinelFlag > 1 {
		return fmt.Errorf("-sentinel %v out of range: want a sample rate in (0,1], or 0 to disable", *sentinelFlag)
	}
	if *sentinelFlag > 0 {
		if windowed {
			return errors.New("-sentinel is incompatible with sliding windows: the exact shadow counts the whole stream, not the window")
		}
		if len(peers) > 0 {
			return errors.New("-sentinel is useless on an aggregator: the first peer merge makes the shadow incoherent — run it on the workers")
		}
	}
	if !*tenantsFlag {
		switch {
		case *tenantBudget != 0:
			return errors.New("-tenant-budget-bits requires -tenants")
		case *spillDirFlag != "":
			return errors.New("-spill-dir requires -tenants")
		case *sentTenantFlag != "":
			return errors.New("-sentinel-tenant requires -tenants")
		}
	} else {
		if err := validateTenantFlags(set); err != nil {
			return err
		}
		if *tenantBudget < 0 {
			return errors.New("-tenant-budget-bits must be non-negative")
		}
		if len(peers) > 0 {
			return errors.New("-tenants is incompatible with -peers: pool states are per-node and do not merge")
		}
		if *sentTenantFlag != "" && *sentinelFlag == 0 {
			return errors.New("-sentinel-tenant requires -sentinel > 0 (the audit sample rate)")
		}
		if *sentinelFlag > 0 && *sentTenantFlag == "" {
			return errors.New("with -tenants, -sentinel needs -sentinel-tenant: naming the audited tenant keeps the shadow's cost off every other tenant")
		}
		if len(*sentTenantFlag) > l1hh.MaxTenantName {
			return fmt.Errorf("-sentinel-tenant longer than %d bytes", l1hh.MaxTenantName)
		}
	}

	var (
		sink      *ckpt.DiskSink
		resume    []byte // newest valid snapshot, nil = start fresh
		resumeSeq uint64
	)
	if *ckptDirFlag != "" {
		if sink, err = ckpt.NewDiskSink(*ckptDirFlag, *ckptRetainFlag); err != nil {
			return err
		}
		// Crash-safe resume: newest valid snapshot wins; corrupt or
		// truncated ones were already skipped (and logged) by the sink.
		if resume, resumeSeq, err = sink.LoadNewest(); err != nil {
			return fmt.Errorf("scanning %s: %w", *ckptDirFlag, err)
		}
	}
	var srv *server
	if *tenantsFlag {
		srv, err = newTenantServer(algo, problem, resume, resumeSeq)
	} else {
		srv, err = newEngineServer(specFromFlags(algo, problem), resume, resumeSeq)
	}
	if err != nil {
		return err
	}
	srv.shedWait = *shedWaitFlag
	srv.maxIngestBytes = *maxBodyFlag

	srv.peers = peers
	aggCtx, aggCancel := context.WithCancel(context.Background())
	defer aggCancel()
	if len(peers) > 0 {
		// Not ready until the first complete fleet pull lands: before
		// that, /report would answer from an empty engine.
		srv.ready.Store(false)
		go srv.aggregate(aggCtx, *pullFlag)
		slog.Info("aggregator mode: mutating endpoints answer 409 — ingest on the workers",
			"peers", len(peers), "pull_every", *pullFlag)
	}

	var coord *coordinator
	coordCtx, coordCancel := context.WithCancel(context.Background())
	defer coordCancel()
	if sink != nil {
		coord = newCoordinator(srv, sink, *ckptEveryFlag, resumeSeq)
		go coord.run(coordCtx)
		slog.Info("checkpoint coordinator running",
			"dir", *ckptDirFlag, "every", *ckptEveryFlag, "retain", *ckptRetainFlag)
	}

	if *pprofFlag != "" {
		// A separate mux so profiling never rides the public API address
		// (and DefaultServeMux stays out of the request path entirely).
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := newHTTPServer(*pprofFlag, pmux).ListenAndServe(); err != nil {
				slog.Warn("pprof server stopped", "err", err)
			}
		}()
		slog.Info("pprof listening", "addr", *pprofFlag)
	}

	httpSrv := newHTTPServer(*addrFlag, srv)
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	win := ""
	switch {
	case *windowFlag > 0:
		win = fmt.Sprint(*windowFlag)
	case *windowDurFlag > 0:
		win = fmt.Sprint(*windowDurFlag)
	}
	attrs := []any{"addr", *addrFlag, "problem", problem.String(),
		"eps", *epsFlag, "phi", *phiFlag, "delta", *deltaFlag, "algo", *algoFlag,
		"window", win, "sentinel", *sentinelFlag, "tenants", *tenantsFlag}
	if srv.pool == nil {
		attrs = append(attrs, "shards", srv.engineStats().Shards)
	}
	slog.Info("hhd listening", attrs...)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		// Flip /readyz to 503 first so load balancers stop routing here
		// while in-flight requests finish.
		srv.setDraining()
		slog.Info("draining", "signal", s.String())
	}

	aggCancel() // stop pulling before the engine drains
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		slog.Warn("http shutdown", "err", err)
	}
	// Drain the shard queues, or the pool's resident engines, so the
	// final state covers every accepted item; a closed engine or pool
	// still checkpoints — that is the shutdown contract.
	if err := srv.shutdown(); err != nil {
		return err
	}
	if coord != nil {
		// Stop the ticker before the final snapshot so the two cannot
		// race for a sequence number, then snapshot the drained state.
		coordCancel()
		coord.wait()
		coord.finalSnapshot()
		slog.Info("wrote final checkpoint",
			"dir", *ckptDirFlag, "seq", coord.seq, "items", coord.lastItems)
	}
	return nil
}

// readHeaderTimeout bounds how long a connection may take to send its
// request header, and idleTimeout how long a keep-alive connection may
// wait for its next request. Without them a client that never finishes
// its header holds a goroutine and a file descriptor forever.
// idleTimeout outlasts the 90 s idle timeout of Go's default client
// transport, so a client on those defaults closes an idle connection
// before the server would.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer returns a server for h on addr under the header and
// idle timeouts above.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr: addr, Handler: h,
		ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout,
	}
}

// newEngineServer builds the single-engine server, resumed from resume
// (the newest -checkpoint-dir snapshot, sequence seq) when non-nil.
func newEngineServer(spec engineSpec, resume []byte, seq uint64) (*server, error) {
	if resume == nil {
		return newServer(spec)
	}
	srv, err := newServerFromCheckpoint(spec, resume)
	if err != nil {
		return nil, fmt.Errorf("resuming from %s: %w", *ckptDirFlag, err)
	}
	st := srv.engine().Stats()
	slog.Info("resumed from checkpoint",
		"dir", *ckptDirFlag, "seq", seq, "items", st.Len, "shards", st.Shards)
	return srv, nil
}

// newTenantServer builds the -tenants server: a tenant pool behind
// /t/{tenant}/ and no default engine, resumed from resume (the newest
// -checkpoint-dir snapshot, sequence seq) when non-nil.
func newTenantServer(algo l1hh.Algorithm, problem l1hh.Problem, resume []byte, seq uint64) (*server, error) {
	if resume != nil && !l1hh.IsPoolCheckpoint(resume) {
		return nil, fmt.Errorf("%s holds single-solver snapshots; resume them without -tenants", *ckptDirFlag)
	}
	srv := newShell(engineSpec{problem: problem})
	popts := []l1hh.PoolOption{
		l1hh.WithTenantDefaults(engineOptions(algo, problem)...),
		l1hh.WithPoolObserver(srv.obs.poolTimings()),
	}
	if *tenantBudget > 0 {
		popts = append(popts, l1hh.WithPoolBudget(*tenantBudget))
	}
	if *spillDirFlag != "" {
		store, err := l1hh.NewDiskSpillStore(*spillDirFlag)
		if err != nil {
			return nil, fmt.Errorf("opening -spill-dir: %w", err)
		}
		popts = append(popts, l1hh.WithPoolSpill(store))
	}
	var (
		hpool *l1hh.Pool
		err   error
	)
	if resume != nil {
		if hpool, err = l1hh.UnmarshalPool(resume, popts...); err != nil {
			return nil, fmt.Errorf("restoring tenant pool: %w", err)
		}
		st := hpool.Stats()
		slog.Info("restored tenant pool",
			"tenants", st.TenantsSpilled, "items", st.Items, "seq", seq)
	} else if hpool, err = l1hh.NewPool(popts...); err != nil {
		return nil, fmt.Errorf("building tenant pool: %w", err)
	}
	if *sentTenantFlag != "" {
		// Sentinels are not serialized: a tenant carried over by the
		// checkpoint already has an engine and cannot take the option —
		// it keeps serving unaudited rather than failing startup.
		if oerr := hpool.SetTenantOptions(*sentTenantFlag,
			l1hh.WithAccuracySentinel(*sentinelFlag)); oerr != nil {
			slog.Warn("sentinel tenant not attached", "tenant", *sentTenantFlag, "err", oerr)
		}
	}
	srv.enablePool(hpool)
	slog.Info("multi-tenant pool serving /t/{tenant}/",
		"budget_bits", *tenantBudget, "spill_dir", *spillDirFlag,
		"sentinel_tenant", *sentTenantFlag)
	return srv, nil
}
