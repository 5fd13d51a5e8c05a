package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	l1hh "repro"
)

// engineSpec is how the daemon remembers what it serves: the full option
// set that builds a fresh engine (aggregator rebuilds, startup) and the
// runtime subset that tunes a restored checkpoint. The daemon never
// touches concrete solver types — everything behind l1hh.New and
// l1hh.Unmarshal is driven through l1hh.HeavyHitters plus the capability
// interfaces (Merger, Windower, Sharder).
type engineSpec struct {
	build   []l1hh.Option // for l1hh.New
	restore []l1hh.Option // for l1hh.Unmarshal (runtime tuning only)

	// problem is what the default engine solves (-problem). Non-default
	// problems build single-owner engines: the shell skips the ingest
	// observer (their option vocabulary has no runtime tuning) and every
	// handler serializes engine access through withEngine.
	problem l1hh.Problem

	// m is the configured stream length (-m; 0 = unknown). /point quotes
	// its error bar against it — the engine's sampler is tuned for m, so
	// ε·len would understate the bound mid-stream.
	m uint64
}

// server wires a HeavyHitters engine to HTTP. All handlers are safe
// for concurrent use: ingest and queries take the engine under a read
// lock; restore swaps it under the write lock.
type server struct {
	mux  *http.ServeMux
	spec engineSpec

	mu  sync.RWMutex
	eng l1hh.HeavyHitters

	// serialEng flips every engine access to the write lock: set by
	// finish when the engine is not a Sharder (the problem engines —
	// voting, extremes — are single-owner and internally unsynchronized,
	// so the handlers provide the mutual exclusion).
	serialEng bool

	start time.Time

	// obs is the per-server Prometheus registry and its stage-latency
	// histograms; the engine spec's ingest observer feeds it.
	obs *serverObs

	// ready gates /readyz: true once the server can answer meaningful
	// reports (immediately on workers; after the first successful pull
	// on aggregators). draining flips on shutdown so load balancers
	// stop routing before the listener closes.
	ready    atomic.Bool
	draining atomic.Bool

	// reqSeq numbers requests for the access log and X-Request-Id.
	reqSeq atomic.Uint64

	// items/sec is computed from the accepted-items delta between
	// distinct Stats snapshots; scrapes that share a cached snapshot
	// report the previous rate instead of a bogus zero.
	rateMu     sync.Mutex
	lastItems  uint64
	lastScrape time.Time
	lastRate   float64

	// One engine Stats barrier serves every gauge of a metrics scrape:
	// the expvar handler reads each published Func independently, so
	// without the cache a single GET /metrics would pay one all-shards
	// barrier per gauge.
	statsMu    sync.Mutex
	statsAt    time.Time
	statsCache l1hh.Stats

	// peers is the aggregator configuration: worker base URLs this node
	// pulls checkpoints from. Set once before the server starts serving;
	// empty on workers.
	peers []string

	// pool is the multi-tenant engine pool behind the /t/{tenant}/*
	// route family (-tenants); nil in single-tenant mode. Installed by
	// enablePool before the server starts serving, never swapped.
	pool *l1hh.Pool

	// Cluster-merge metrics: counts cover both POST /merge and the
	// aggregator loop; latency is the last successful merge's wall time;
	// staleness derives from the last success timestamp.
	mergesTotal   atomic.Uint64
	mergeErrors   atomic.Uint64
	mergeLastNano atomic.Int64 // duration of the last successful merge
	mergeLastUnix atomic.Int64 // UnixNano of the last successful merge; 0 = never

	// votesTotal counts ballots accepted by /vote and /t/{tenant}/vote
	// (hhd.votes_total / hhd_votes_total).
	votesTotal atomic.Uint64

	// Load shedding (-shed-wait): how long an ingest request may wait on
	// saturated shard queues before answering 429, and how often that
	// happened. Zero keeps the legacy blocking backpressure.
	shedWait  time.Duration
	shedTotal atomic.Uint64

	// maxIngestBytes bounds one /ingest body (0 = unlimited); oversized
	// requests answer 413 instead of streaming forever.
	maxIngestBytes int64

	// Checkpoint-coordinator metrics (-checkpoint-dir): written by the
	// coordinator goroutine, read by the hhd_checkpoint_* gauges. They
	// live on the server (not the coordinator) because the registry is
	// built before the coordinator exists.
	ckptTotal     atomic.Uint64
	ckptErrors    atomic.Uint64
	ckptLastBytes atomic.Uint64
	ckptLastSeq   atomic.Uint64
	ckptLastUnix  atomic.Int64 // UnixNano of the last stored snapshot; 0 = never
}

// ingestBatchSize is how many items ingest hands to InsertBatch at once.
const ingestBatchSize = 8192

// ingestBuffers is the per-request scratch the decode paths borrow from
// ingestPool instead of allocating: the InsertBatch staging slice and a
// 64 KiB read buffer (the binary path's raw body bytes, the NDJSON
// scanner's line buffer). With it, steady-state ingest allocates nothing
// per item (the engine's dispatch layer is pooled too — internal/shard);
// what remains is a few fixed allocations per request (scanner struct,
// response encoding).
type ingestBuffers struct {
	batch []l1hh.Item
	buf   []byte
}

var ingestPool = sync.Pool{New: func() any {
	return &ingestBuffers{
		batch: make([]l1hh.Item, 0, ingestBatchSize),
		buf:   make([]byte, 1<<16),
	}
}}

// maxSnapshotBody bounds /restore request bodies.
const maxSnapshotBody = 1 << 30

// maxLineCount bounds the "count" of a single NDJSON line so one line
// cannot pin a handler expanding it (the expansion is item-by-item).
const maxLineCount = 1 << 24

// statsTTL is how long a metrics-scrape Stats snapshot is reused; it
// spans one expvar handler pass without making dashboards visibly stale.
const statsTTL = 250 * time.Millisecond

// activeServer lets the process-wide expvar funcs (expvar registration
// is global and permanent) follow the live server, including across
// tests that build several servers.
var activeServer atomic.Pointer[server]

var publishOnce sync.Once

func publishMetrics() {
	get := func() *server { return activeServer.Load() }
	expvar.Publish("hhd.items_total", expvar.Func(func() any {
		if s := get(); s != nil {
			return s.scrapeStats().Items
		}
		return 0
	}))
	expvar.Publish("hhd.items_per_sec", expvar.Func(func() any {
		if s := get(); s != nil {
			return s.itemsPerSec()
		}
		return 0.0
	}))
	expvar.Publish("hhd.queue_depths", expvar.Func(func() any {
		if s := get(); s != nil {
			if d := s.scrapeStats().QueueDepths; d != nil {
				return d
			}
		}
		return []int{}
	}))
	expvar.Publish("hhd.model_bits", expvar.Func(func() any {
		if s := get(); s != nil {
			return s.scrapeStats().ModelBits
		}
		return 0
	}))
	expvar.Publish("hhd.shards", expvar.Func(func() any {
		if s := get(); s != nil {
			return s.scrapeStats().Shards
		}
		return 0
	}))
	expvar.Publish("hhd.uptime_seconds", expvar.Func(func() any {
		if s := get(); s != nil {
			return time.Since(s.start).Seconds()
		}
		return 0.0
	}))
	expvar.Publish("hhd.peers", expvar.Func(func() any {
		if s := get(); s != nil {
			return len(s.peers)
		}
		return 0
	}))
	expvar.Publish("hhd.votes_total", expvar.Func(func() any {
		if s := get(); s != nil {
			return s.votesTotal.Load()
		}
		return 0
	}))
	expvar.Publish("hhd.ingest_shed_total", expvar.Func(func() any {
		if s := get(); s != nil {
			return s.shedTotal.Load()
		}
		return 0
	}))
	expvar.Publish("hhd.checkpoints_total", expvar.Func(func() any {
		if s := get(); s != nil {
			return s.ckptTotal.Load()
		}
		return 0
	}))
	expvar.Publish("hhd.checkpoint_errors_total", expvar.Func(func() any {
		if s := get(); s != nil {
			return s.ckptErrors.Load()
		}
		return 0
	}))
	expvar.Publish("hhd.merges_total", expvar.Func(func() any {
		if s := get(); s != nil {
			return s.mergesTotal.Load()
		}
		return 0
	}))
	expvar.Publish("hhd.merge_errors_total", expvar.Func(func() any {
		if s := get(); s != nil {
			return s.mergeErrors.Load()
		}
		return 0
	}))
	expvar.Publish("hhd.merge_latency_seconds", expvar.Func(func() any {
		if s := get(); s != nil {
			return time.Duration(s.mergeLastNano.Load()).Seconds()
		}
		return 0.0
	}))
	expvar.Publish("hhd.merge_staleness_seconds", expvar.Func(func() any {
		if s := get(); s != nil {
			if last := s.mergeLastUnix.Load(); last > 0 {
				return time.Since(time.Unix(0, last)).Seconds()
			}
		}
		return -1.0
	}))
	// One composite gauge out of the shared Stats snapshot — separate
	// barriers per field would each pay a full all-shards round-trip.
	// covered_min/covered_max/share_skew make the DESIGN.md §8 caveats
	// observable (a stuck covered_min is a stale shard, a large
	// share_skew a dominant item), and extrapolated says whether the
	// report fold corrects for them.
	expvar.Publish("hhd.window", expvar.Func(func() any {
		if s := get(); s != nil {
			if st := s.scrapeStats().Window; st != nil {
				return map[string]any{
					"covered":       st.Covered,
					"covered_min":   st.CoveredMin,
					"covered_max":   st.CoveredMax,
					"share_skew":    st.ShareSkew,
					"extrapolated":  st.Extrapolated,
					"retired_total": st.Retired,
					"buckets":       st.Buckets,
					"span_seconds":  st.Span.Seconds(),
				}
			}
		}
		return nil
	}))
	// The multi-tenant pool's occupancy (with -tenants): null without a
	// pool, one composite gauge otherwise — pool.Stats is cheap (a mutex,
	// no engine barrier), so it takes no part in the statsTTL cache.
	expvar.Publish("hhd.pool", expvar.Func(func() any {
		if s := get(); s != nil && s.pool != nil {
			st := s.pool.Stats()
			return map[string]any{
				"tenants_live":          st.TenantsLive,
				"tenants_spilled":       st.TenantsSpilled,
				"tenants_pinned":        st.TenantsPinned,
				"model_bits_in_use":     st.ModelBitsInUse,
				"budget_bits":           st.BudgetBits,
				"evictions_total":       st.Evictions,
				"revives_total":         st.Revives,
				"spill_errors_total":    st.SpillErrors,
				"tenants_created_total": st.TenantsCreated,
				"spilled_bytes":         st.SpilledBytes,
				"items_total":           st.Items,
			}
		}
		return nil
	}))
	// The accuracy sentinel's audit state (with -sentinel), the same
	// composite-out-of-one-barrier shape as hhd.window.
	expvar.Publish("hhd.sentinel", expvar.Func(func() any {
		if s := get(); s != nil {
			if sen := s.scrapeStats().Sentinel; sen != nil {
				return map[string]any{
					"sample_rate":      sen.SampleRate,
					"seen_total":       sen.TotalSeen,
					"sampled_total":    sen.Sampled,
					"keys":             sen.Keys,
					"dropped_total":    sen.Dropped,
					"checks_total":     sen.Checks,
					"violations_total": sen.Violations,
					"observed_eps":     sen.ObservedEps,
					"max_observed_eps": sen.MaxObservedEps,
					"incoherent":       sen.Incoherent,
				}
			}
		}
		return nil
	}))
}

// newServer builds the engine for spec and the routing table.
func newServer(spec engineSpec) (*server, error) {
	s := newShell(spec)
	eng, err := l1hh.New(s.spec.build...)
	if err != nil {
		return nil, err
	}
	s.finish(eng)
	return s, nil
}

// newServerFromCheckpoint restores the engine from a checkpoint blob
// instead of building it fresh; the spec's runtime options (including
// the ingest observer) are re-applied to the restored container.
func newServerFromCheckpoint(spec engineSpec, blob []byte) (*server, error) {
	s := newShell(spec)
	eng, err := l1hh.Unmarshal(blob, s.spec.restore...)
	if err != nil {
		return nil, err
	}
	if spec.problem != l1hh.HeavyHittersProblem {
		// Problem mode runs a single-owner engine anyway (handlers
		// serialize); the blob just has to answer the same problem family
		// the flags asked for.
		if got, want := problemKind(eng), kindForProblem(spec.problem); got != want {
			eng.Close()
			return nil, fmt.Errorf("checkpoint restores to a %s engine; -problem %s needs a %s engine", got, spec.problem, want)
		}
	} else if _, ok := eng.(l1hh.Sharder); !ok {
		eng.Close()
		return nil, errors.New("checkpoint restores to a single-owner solver; hhd needs a sharded container")
	}
	s.finish(eng)
	return s, nil
}

// problemKind classifies an engine by the capability it answers — the
// daemon's stand-in for "which problem is this" that never names
// concrete solver types.
func problemKind(eng l1hh.HeavyHitters) string {
	switch eng.(type) {
	case l1hh.Voter:
		return "voting"
	case l1hh.Extremes:
		return "extremes"
	default:
		return "heavy-hitters"
	}
}

// kindForProblem maps a -problem value onto the problemKind vocabulary.
func kindForProblem(p l1hh.Problem) string {
	switch p {
	case l1hh.BordaProblem, l1hh.MaximinProblem:
		return "voting"
	case l1hh.MinFrequencyProblem, l1hh.MaxFrequencyProblem:
		return "extremes"
	default:
		return "heavy-hitters"
	}
}

// newShell allocates the server and its metrics registry BEFORE any
// engine exists: the stage histograms must be live so the ingest
// observer option — appended to both option sets here — can reference
// them from every engine the server will ever run (initial build,
// checkpoint restore, aggregator rebuilds).
func newShell(spec engineSpec) *server {
	s := &server{spec: spec, start: time.Now()}
	s.obs = newServerObs(s)
	if spec.problem == l1hh.HeavyHittersProblem {
		// The problem engines take no runtime tuning — their option
		// vocabulary (and their checkpoints' Unmarshal) reject the
		// observer, so only the heavy hitters stack gets the stage hooks.
		timings := s.obs.ingestTimings()
		s.spec.build = append(s.spec.build, l1hh.WithIngestObserver(timings))
		s.spec.restore = append(s.spec.restore, l1hh.WithIngestObserver(timings))
	}
	return s
}

// finish installs the engine and the routing table; the server is ready
// from here (aggregator mode lowers readiness again before serving).
func (s *server) finish(eng l1hh.HeavyHitters) {
	s.eng = eng
	_, sharded := eng.(l1hh.Sharder)
	s.serialEng = !sharded
	s.lastScrape = s.start
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /ingest", s.handleIngest)
	s.mux.HandleFunc("GET /report", s.handleReport)
	s.mux.HandleFunc("POST /checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("POST /merge", s.handleMerge)
	s.mux.HandleFunc("POST /restore", s.handleRestore)
	s.mux.HandleFunc("POST /vote", s.handleVote)
	s.mux.HandleFunc("GET /winner", s.handleWinner)
	s.mux.HandleFunc("GET /extremes", s.handleExtremes)
	s.mux.HandleFunc("GET /point", s.handlePoint)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.Handle("GET /metrics", s.handleMetrics(expvar.Handler()))
	s.ready.Store(true)
	activeServer.Store(s)
	publishOnce.Do(publishMetrics)
}

// ServeHTTP wraps the routing table in the access log: every request
// gets a sequential id (echoed as X-Request-Id) and a structured log
// line with method, path, status, size and latency.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := fmt.Sprintf("%06d", s.reqSeq.Add(1))
	w.Header().Set("X-Request-Id", id)
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	s.mux.ServeHTTP(rec, r)
	slog.Debug("http",
		"id", id,
		"method", r.Method,
		"path", r.URL.Path,
		"status", rec.status,
		"bytes", rec.bytes,
		"dur", time.Since(start).Round(time.Microsecond).String(),
	)
}

// statusRecorder captures the status code and body size for the access
// log without changing handler behaviour.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += n
	return n, err
}

// isReady reports whether /readyz should answer 200: not draining, and
// past any warm-up gate (aggregators wait for the first successful
// pull).
func (s *server) isReady() bool { return s.ready.Load() && !s.draining.Load() }

// setDraining lowers readiness ahead of shutdown so load balancers
// stop routing while the listener still answers.
func (s *server) setDraining() { s.draining.Store(true) }

func (s *server) engine() l1hh.HeavyHitters {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.eng
}

// withEngine runs f against the live engine under the lock discipline
// it needs. Sharded engines synchronize internally, so readers share
// the read lock (engine swaps exclude via the write lock, exactly as
// before); a single-owner problem engine (-problem borda, maximin,
// minfreq, maxfreq) is unsynchronized, so every access — ingest,
// queries, snapshots — serializes under the write lock.
func (s *server) withEngine(f func(eng l1hh.HeavyHitters)) {
	if s.serialEng {
		s.mu.Lock()
		defer s.mu.Unlock()
	} else {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	f(s.eng)
}

// engineStats takes one Stats snapshot under withEngine's discipline.
func (s *server) engineStats() l1hh.Stats {
	var st l1hh.Stats
	s.withEngine(func(eng l1hh.HeavyHitters) { st = eng.Stats() })
	return st
}

// marshalEngine snapshots the live engine's serialized state under
// withEngine's discipline (/checkpoint, the coordinator).
func (s *server) marshalEngine() ([]byte, error) {
	var (
		blob []byte
		err  error
	)
	s.withEngine(func(eng l1hh.HeavyHitters) { blob, err = eng.MarshalBinary() })
	return blob, err
}

// scrapeStats returns the engine's Stats, reusing a snapshot younger
// than statsTTL so one metrics scrape costs one barrier.
func (s *server) scrapeStats() l1hh.Stats {
	st, _ := s.scrapeStatsAt()
	return st
}

// scrapeStatsAt additionally reports when the returned snapshot was
// taken, so rate computations can tell a fresh snapshot from a cached
// one.
func (s *server) scrapeStatsAt() (l1hh.Stats, time.Time) {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	if !s.statsAt.IsZero() && time.Since(s.statsAt) < statsTTL {
		return s.statsCache, s.statsAt
	}
	s.statsCache = s.engineStats()
	s.statsAt = time.Now()
	return s.statsCache, s.statsAt
}

func (s *server) itemsPerSec() float64 {
	st, at := s.scrapeStatsAt()
	s.rateMu.Lock()
	defer s.rateMu.Unlock()
	if !at.After(s.lastScrape) {
		// Same (cached) snapshot as the previous computation: the delta
		// would be zero by construction, not because ingest stopped.
		return s.lastRate
	}
	dt := at.Sub(s.lastScrape).Seconds()
	if dt <= 0 {
		return s.lastRate
	}
	if st.Items < s.lastItems { // engine swapped to an older state
		s.lastItems, s.lastScrape, s.lastRate = st.Items, at, 0
		return 0
	}
	rate := float64(st.Items-s.lastItems) / dt
	s.lastItems, s.lastScrape, s.lastRate = st.Items, at, rate
	return rate
}

// resetRate re-baselines the items/sec computation and drops the stats
// snapshot after an engine swap: the swapped-in counter may be far below
// the old one, and a uint64 delta would wrap into an absurd items/sec.
func (s *server) resetRate(items uint64) {
	s.rateMu.Lock()
	s.lastItems, s.lastScrape, s.lastRate = items, time.Now(), 0
	s.rateMu.Unlock()
	s.statsMu.Lock()
	s.statsAt = time.Time{}
	s.statsMu.Unlock()
}

// shutdown stops accepting state changes and drains the engine so the
// final report/checkpoint reflect every accepted item.
func (s *server) shutdown() error {
	return s.engine().Close()
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// handleIngest accepts a batch of items. Two body formats:
//
//   - application/octet-stream: consecutive little-endian uint64 ids.
//   - application/x-ndjson (or text/*): one item per line — a bare
//     decimal id, or {"item": id} / {"item": id, "count": k} to insert
//     an id k times.
//
// Responds {"accepted": n}. Backpressure policy depends on -shed-wait:
// zero keeps the legacy behavior (a full shard queue blocks the
// request); positive bounds the wait, after which the request is shed
// with 429 + Retry-After and an "accepted" count so a client can trim
// its acknowledged prefix before retrying (DESIGN.md §12). Bodies over
// -max-ingest-bytes answer 413.
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.rejectOnAggregator(w) {
		return
	}
	var insert func([]l1hh.Item) error
	if s.serialEng {
		// Single-owner engine: each batch takes the write lock. The
		// Shedder capability still applies when the engine offers it.
		insert = func(batch []l1hh.Item) error {
			var err error
			s.withEngine(func(eng l1hh.HeavyHitters) {
				if sh, ok := eng.(l1hh.Shedder); ok && s.shedWait > 0 {
					err = sh.InsertBatchBounded(batch, s.shedWait)
					return
				}
				err = eng.InsertBatch(batch)
			})
			return err
		}
	} else {
		eng := s.engine()
		insert = eng.InsertBatch
		if s.shedWait > 0 {
			if sh, ok := eng.(l1hh.Shedder); ok {
				wait := s.shedWait
				insert = func(batch []l1hh.Item) error { return sh.InsertBatchBounded(batch, wait) }
			}
		}
	}
	s.serveIngest(w, r, insert)
}

// serveIngest decodes one ingest body and feeds it through insert,
// sharing the format negotiation, body limit and error vocabulary
// between the single-tenant route and the /t/{tenant} family. A bounded
// wait that expires surfaces as 429 whether the engine's shard queues
// stayed saturated (ErrSaturated) or the tenant's engine stayed busy
// (ErrTenantBusy).
func (s *server) serveIngest(w http.ResponseWriter, r *http.Request, insert func([]l1hh.Item) error) {
	body := r.Body
	if s.maxIngestBytes > 0 {
		body = http.MaxBytesReader(w, r.Body, s.maxIngestBytes)
	}
	ct := r.Header.Get("Content-Type")
	var (
		accepted uint64
		err      error
	)
	start := time.Now()
	switch {
	case strings.HasPrefix(ct, "application/octet-stream"):
		accepted, err = ingestBinary(insert, body)
	case ct == "" || strings.HasPrefix(ct, "application/x-ndjson"),
		strings.HasPrefix(ct, "application/json"), strings.HasPrefix(ct, "text/"):
		accepted, err = ingestNDJSON(insert, body)
	default:
		httpError(w, http.StatusUnsupportedMediaType, "unsupported Content-Type %q", ct)
		return
	}
	s.obs.ingestDecode.ObserveDuration(time.Since(start))
	if err != nil {
		var mbe *http.MaxBytesError
		switch {
		case errors.Is(err, l1hh.ErrSaturated), errors.Is(err, l1hh.ErrTenantBusy):
			// Load shed: the engine's queues stayed full (or the tenant's
			// engine stayed busy) for the whole bounded wait. "accepted"
			// counts fully applied chunks — the saturated chunk may have
			// partially enqueued, which is why delivery is at-least-once,
			// not exactly-once, across a retry.
			s.shedTotal.Add(1)
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]any{
				"error":    "ingest saturated; retry after the indicated delay",
				"accepted": accepted,
			})
		case errors.As(err, &mbe):
			httpError(w, http.StatusRequestEntityTooLarge,
				"after %d items: body exceeds the %d-byte ingest limit", accepted, mbe.Limit)
		case errors.Is(err, l1hh.ErrNotItems):
			// Wrong currency: this engine consumes rankings. Mirror the
			// /vote-on-items contract with a 409 redirect.
			httpError(w, http.StatusConflict, "after %d items: %v", accepted, err)
		default:
			// Items before the malformed point were already inserted;
			// report both the error and the accepted count.
			httpError(w, http.StatusBadRequest, "after %d items: %v", accepted, err)
		}
		return
	}
	writeJSON(w, map[string]uint64{"accepted": accepted})
}

func ingestBinary(insert func([]l1hh.Item) error, body io.Reader) (uint64, error) {
	bufs := ingestPool.Get().(*ingestBuffers)
	defer ingestPool.Put(bufs)
	buf, batch := bufs.buf, bufs.batch[:0]
	var accepted uint64
	torn := 0 // bytes of a word split across reads, moved to the front of buf
	for {
		n, err := body.Read(buf[torn:])
		n += torn
		whole := n &^ 7
		for off := 0; off < whole; off += 8 {
			batch = append(batch, binary.LittleEndian.Uint64(buf[off:]))
			if len(batch) == cap(batch) {
				if err := insert(batch); err != nil {
					return accepted, err
				}
				accepted += uint64(len(batch))
				batch = batch[:0]
			}
		}
		torn = copy(buf, buf[whole:n])
		if err == io.EOF {
			break
		}
		if err != nil {
			return accepted, fmt.Errorf("reading binary body: %w", err)
		}
	}
	if torn > 0 {
		return accepted, errors.New("binary body length not a multiple of 8")
	}
	// An empty tail is not inserted: on the tenant routes an insert is a
	// touch that creates (or revives) the engine, and a zero-item body
	// must not register a tenant.
	if len(batch) > 0 {
		if err := insert(batch); err != nil {
			return accepted, err
		}
	}
	return accepted + uint64(len(batch)), nil
}

// ndjsonLine is the object form of an ingest line. Count is a pointer
// so an explicit "count": 0 (a no-op record) is distinct from an absent
// count (insert once).
type ndjsonLine struct {
	Item  uint64  `json:"item"`
	Count *uint64 `json:"count"`
}

func ingestNDJSON(insert func([]l1hh.Item) error, body io.Reader) (uint64, error) {
	bufs := ingestPool.Get().(*ingestBuffers)
	defer ingestPool.Put(bufs)
	sc := bufio.NewScanner(body)
	sc.Buffer(bufs.buf[:0], 1<<20)
	batch := bufs.batch[:0]
	var accepted uint64
	flush := func() error {
		if len(batch) == 0 {
			// Nothing to insert — and on the tenant routes an empty
			// insert would still create (or revive) the engine.
			return nil
		}
		if err := insert(batch); err != nil {
			return err
		}
		accepted += uint64(len(batch))
		batch = batch[:0]
		return nil
	}
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var id, count uint64 = 0, 1
		if line[0] == '{' {
			var l ndjsonLine
			if err := json.Unmarshal([]byte(line), &l); err != nil {
				return accepted, fmt.Errorf("line %d: %w", lineno, err)
			}
			id = l.Item
			if l.Count != nil {
				if *l.Count > maxLineCount {
					return accepted, fmt.Errorf("line %d: count %d exceeds limit %d", lineno, *l.Count, maxLineCount)
				}
				count = *l.Count
			}
		} else {
			v, err := strconv.ParseUint(line, 10, 64)
			if err != nil {
				return accepted, fmt.Errorf("line %d: %w", lineno, err)
			}
			id = v
		}
		for ; count > 0; count-- {
			batch = append(batch, id)
			if len(batch) == cap(batch) {
				if err := flush(); err != nil {
					return accepted, err
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return accepted, err
	}
	return accepted, flush()
}

// reportResponse is the GET /report body. Len is the stream length the
// report answered for (the window's covered mass when windowed), and
// Eps/Phi are the live engine's effective problem parameters — together
// they let a client validate a report against the thresholds it was
// actually computed with, even after a /restore swapped in a different
// configuration. In aggregator mode MergedAgeSeconds is the age of the
// merged state serving this report (-1 until the first successful pull):
// a growing value means the report is going stale behind the workers.
type reportResponse struct {
	Len              uint64         `json:"len"`
	Eps              float64        `json:"eps"`
	Phi              float64        `json:"phi"`
	ModelBits        int64          `json:"model_bits"`
	Shards           int            `json:"shards"`
	HeavyHitters     []reportedItem `json:"heavy_hitters"`
	Window           *windowMeta    `json:"window,omitempty"`
	MergedAgeSeconds *float64       `json:"merged_age_seconds,omitempty"`
}

// windowMeta describes the sliding window a report covered.
type windowMeta struct {
	// Window and DurationSeconds echo the configured geometry (one of
	// them is zero, matching -window vs -window-duration).
	Window          uint64  `json:"window"`
	DurationSeconds float64 `json:"duration_seconds"`
	// Shards and PerShardWindow expose the split geometry: a sharded
	// count window covers ⌈window/shards⌉ items per shard, which is what
	// distinguishes a tag-5 container from a tag-4 one at query time.
	// PerShardWindow is zero for time windows (every shard spans the
	// same wall clock).
	Shards         int    `json:"shards"`
	PerShardWindow uint64 `json:"per_shard_window"`
	// Covered is the mass the report answered for; Retired has aged out.
	Covered uint64 `json:"covered"`
	Total   uint64 `json:"total"`
	Retired uint64 `json:"retired"`
	// CoveredMin/CoveredMax bound the per-shard covered masses (a stuck
	// CoveredMin means a stale shard), and ShareSkew compares the
	// measured per-shard traffic shares (1 = balanced). Extrapolated
	// reports whether the count-window fold rate-extrapolates estimates
	// against those shares (DESIGN.md §8).
	CoveredMin   uint64  `json:"covered_min"`
	CoveredMax   uint64  `json:"covered_max"`
	ShareSkew    float64 `json:"share_skew"`
	Extrapolated bool    `json:"extrapolated"`
	// Buckets is the live epoch count across all shards; OldestMass
	// bounds how much of Covered may predate the exact window.
	Buckets     int     `json:"buckets"`
	OldestMass  uint64  `json:"oldest_mass"`
	SpanSeconds float64 `json:"span_seconds"`
}

type reportedItem struct {
	Item     uint64  `json:"item"`
	Estimate float64 `json:"estimate"`
}

func (s *server) handleReport(w http.ResponseWriter, r *http.Request) {
	var (
		rep    []l1hh.ItemEstimate
		st     l1hh.Stats
		winN   uint64
		winDur time.Duration
		hasWin bool
	)
	s.withEngine(func(eng l1hh.HeavyHitters) {
		start := time.Now()
		rep = eng.Report()
		s.obs.report.ObserveDuration(time.Since(start))
		st = eng.Stats()
		if win, ok := eng.(l1hh.Windower); ok {
			winN, winDur, _ = win.Window()
			hasWin = true
		}
	})
	s.obs.observeSentinel(st)
	out := reportResponse{
		Len:          st.Len,
		Eps:          st.Eps,
		Phi:          st.Phi,
		ModelBits:    st.ModelBits,
		Shards:       st.Shards,
		HeavyHitters: make([]reportedItem, len(rep)),
	}
	for i, it := range rep {
		out.HeavyHitters[i] = reportedItem{Item: it.Item, Estimate: it.F}
	}
	if hasWin && st.Window != nil {
		out.Window = &windowMeta{
			Window:          winN,
			DurationSeconds: winDur.Seconds(),
			Shards:          st.Shards,
			PerShardWindow:  st.Window.PerShardWindow,
			Covered:         st.Window.Covered,
			Total:           st.Window.Total,
			Retired:         st.Window.Retired,
			CoveredMin:      st.Window.CoveredMin,
			CoveredMax:      st.Window.CoveredMax,
			ShareSkew:       st.Window.ShareSkew,
			Extrapolated:    st.Window.Extrapolated,
			Buckets:         st.Window.Buckets,
			OldestMass:      st.Window.OldestMass,
			SpanSeconds:     st.Window.Span.Seconds(),
		}
	}
	if len(s.peers) > 0 {
		age := -1.0
		if last := s.mergeLastUnix.Load(); last > 0 {
			age = time.Since(time.Unix(0, last)).Seconds()
		}
		out.MergedAgeSeconds = &age
	}
	writeJSON(w, out)
}

func (s *server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	blob, err := s.marshalEngine()
	if err != nil {
		httpError(w, http.StatusConflict, "checkpoint: %v", err)
		return
	}
	s.obs.ckptEncode.ObserveDuration(time.Since(start))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	w.Write(blob)
}

// voteLine is the object form of a /vote NDJSON line. Count is a
// pointer so an explicit "count": 0 (a no-op ballot) is distinct from
// an absent count (vote once).
type voteLine struct {
	Ranking []uint32 `json:"ranking"`
	Count   *uint64  `json:"count"`
}

// serveVote decodes one /vote body and feeds each ballot through vote,
// sharing the line format and error vocabulary between the
// single-tenant route and the /t/{tenant} twin. The body is NDJSON:
// one ballot per line, either a bare JSON array of candidate ids (most
// preferred first) — "[2,0,1]" — or {"ranking": [...], "count": k} to
// count a ballot k times. Responds {"accepted": n} ballots.
func (s *server) serveVote(w http.ResponseWriter, r *http.Request, vote func(l1hh.Ranking) error) {
	body := r.Body
	if s.maxIngestBytes > 0 {
		body = http.MaxBytesReader(w, r.Body, s.maxIngestBytes)
	}
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	var accepted uint64
	fail := func(code int, format string, args ...any) {
		// Ballots before the failing point were already counted; report
		// both, matching /ingest's partial-acceptance contract.
		s.votesTotal.Add(accepted)
		httpError(w, code, "after %d ballots: %s", accepted, fmt.Sprintf(format, args...))
	}
	start := time.Now()
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var (
			rk    l1hh.Ranking
			count uint64 = 1
		)
		if line[0] == '{' {
			var l voteLine
			if err := json.Unmarshal([]byte(line), &l); err != nil {
				fail(http.StatusBadRequest, "line %d: %v", lineno, err)
				return
			}
			rk = l1hh.Ranking(l.Ranking)
			if l.Count != nil {
				if *l.Count > maxLineCount {
					fail(http.StatusBadRequest, "line %d: count %d exceeds limit %d", lineno, *l.Count, maxLineCount)
					return
				}
				count = *l.Count
			}
		} else if err := json.Unmarshal([]byte(line), &rk); err != nil {
			fail(http.StatusBadRequest, "line %d: %v", lineno, err)
			return
		}
		for ; count > 0; count-- {
			if err := vote(rk); err != nil {
				switch {
				case errors.Is(err, l1hh.ErrNotRankings):
					fail(http.StatusConflict, "%v", err)
				case errors.Is(err, l1hh.ErrUnknownTenant),
					errors.Is(err, l1hh.ErrInvalidTenant),
					errors.Is(err, l1hh.ErrTenantBusy):
					s.votesTotal.Add(accepted)
					tenantError(w, r.PathValue("tenant"), err)
				default:
					fail(http.StatusBadRequest, "line %d: %v", lineno, err)
				}
				return
			}
			accepted++
		}
	}
	if err := sc.Err(); err != nil {
		fail(http.StatusBadRequest, "%v", err)
		return
	}
	s.obs.ingestDecode.ObserveDuration(time.Since(start))
	s.votesTotal.Add(accepted)
	writeJSON(w, map[string]uint64{"accepted": accepted})
}

// handleVote is POST /vote: ballot ingest for the voting problems
// (-problem borda|maximin). A heavy hitters or extremes engine answers
// 409 — the capability is discovered by assertion, never assumed.
func (s *server) handleVote(w http.ResponseWriter, r *http.Request) {
	if s.rejectOnAggregator(w) {
		return
	}
	s.serveVote(w, r, func(rk l1hh.Ranking) error {
		var err error
		s.withEngine(func(eng l1hh.HeavyHitters) {
			v, ok := eng.(l1hh.Voter)
			if !ok {
				err = l1hh.ErrNotRankings
				return
			}
			err = v.Vote(rk)
		})
		return err
	})
}

// winnerResponse is the GET /winner body: the current winner under the
// engine's voting rule, every candidate's score estimate, and — when
// the stream length is known — the (ε,ϕ)-List answer at the engine's
// threshold.
type winnerResponse struct {
	Candidate  int               `json:"candidate"`
	Score      float64           `json:"score"`
	Candidates int               `json:"candidates"`
	Ballots    uint64            `json:"ballots"`
	Eps        float64           `json:"eps"`
	Phi        float64           `json:"phi"`
	Scores     []float64         `json:"scores"`
	List       []scoredCandidate `json:"list,omitempty"`
}

type scoredCandidate struct {
	Candidate int     `json:"candidate"`
	Score     float64 `json:"score"`
}

// winnerFor builds the /winner body when eng is a Voter.
func winnerFor(eng l1hh.HeavyHitters) (*winnerResponse, bool) {
	v, ok := eng.(l1hh.Voter)
	if !ok {
		return nil, false
	}
	c, score := v.Winner()
	out := &winnerResponse{
		Candidate:  c,
		Score:      score,
		Candidates: v.Candidates(),
		Ballots:    eng.Len(),
		Eps:        eng.Eps(),
		Phi:        eng.Phi(),
		Scores:     v.Scores(),
	}
	if list := v.List(eng.Phi()); list != nil {
		out.List = make([]scoredCandidate, len(list))
		for i, sc := range list {
			out.List[i] = scoredCandidate{Candidate: sc.Candidate, Score: sc.Score}
		}
	}
	return out, true
}

func (s *server) handleWinner(w http.ResponseWriter, r *http.Request) {
	var (
		out *winnerResponse
		ok  bool
	)
	s.withEngine(func(eng l1hh.HeavyHitters) { out, ok = winnerFor(eng) })
	if !ok {
		httpError(w, http.StatusConflict,
			"winner: this engine does not aggregate ballots; start hhd with -problem borda or -problem maximin")
		return
	}
	writeJSON(w, out)
}

// extremesResponse is the GET /extremes body: the one frequency extreme
// the engine tracks, with its error bar ε·m.
type extremesResponse struct {
	Kind     string  `json:"kind"` // "min-frequency" or "max-frequency"
	Item     uint64  `json:"item"`
	Estimate float64 `json:"estimate"`
	Bound    float64 `json:"bound"`
	Len      uint64  `json:"len"`
	Eps      float64 `json:"eps"`
}

// extremesFor builds the /extremes body when eng is an Extremes engine.
// ok is false when the capability is absent; err carries ErrEmptyStream.
func extremesFor(eng l1hh.HeavyHitters) (out *extremesResponse, ok bool, err error) {
	ex, isExtremes := eng.(l1hh.Extremes)
	if !isExtremes {
		return nil, false, nil
	}
	kind := "min-frequency"
	est, bound, qerr := ex.MinItem()
	if errors.Is(qerr, l1hh.ErrWrongExtreme) {
		kind = "max-frequency"
		est, bound, qerr = ex.MaxItem()
	}
	if qerr != nil {
		return nil, true, qerr
	}
	return &extremesResponse{
		Kind:     kind,
		Item:     est.Item,
		Estimate: est.F,
		Bound:    bound,
		Len:      eng.Len(),
		Eps:      eng.Eps(),
	}, true, nil
}

func (s *server) handleExtremes(w http.ResponseWriter, r *http.Request) {
	var (
		out *extremesResponse
		ok  bool
		err error
	)
	s.withEngine(func(eng l1hh.HeavyHitters) { out, ok, err = extremesFor(eng) })
	switch {
	case !ok:
		httpError(w, http.StatusConflict,
			"extremes: this engine does not track a frequency extreme; start hhd with -problem minfreq or -problem maxfreq")
	case err != nil:
		httpError(w, http.StatusConflict, "extremes: %v", err)
	default:
		writeJSON(w, out)
	}
}

// pointResponse is the GET /point?item=N body: the item's frequency
// estimate over the whole stream with the §3 additive bound ε·m.
type pointResponse struct {
	Item     uint64  `json:"item"`
	Estimate float64 `json:"estimate"`
	Bound    float64 `json:"bound"`
	Len      uint64  `json:"len"`
	Eps      float64 `json:"eps"`
}

// pointFor builds the /point body when eng answers point queries. m is
// the configured stream length the engine's sampler was tuned for; the
// bound is quoted against max(m, len) so a mid-stream query does not
// understate the error bar.
func pointFor(eng l1hh.HeavyHitters, x, m uint64) (*pointResponse, bool) {
	pq, ok := eng.(l1hh.PointQuerier)
	if !ok {
		return nil, false
	}
	n := eng.Len()
	if m > n {
		n = m
	}
	return &pointResponse{
		Item:     x,
		Estimate: pq.Estimate(x),
		Bound:    eng.Eps() * float64(n),
		Len:      eng.Len(),
		Eps:      eng.Eps(),
	}, true
}

func (s *server) handlePoint(w http.ResponseWriter, r *http.Request) {
	item := r.URL.Query().Get("item")
	if item == "" {
		httpError(w, http.StatusBadRequest, "point: missing ?item=N")
		return
	}
	x, err := strconv.ParseUint(item, 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "point: bad item %q: %v", item, err)
		return
	}
	var (
		out *pointResponse
		ok  bool
	)
	s.withEngine(func(eng l1hh.HeavyHitters) { out, ok = pointFor(eng, x, s.spec.m) })
	if !ok {
		httpError(w, http.StatusConflict,
			"point: this engine cannot bound a per-item estimate (unknown stream length, sliding window, or a non-frequency problem)")
		return
	}
	writeJSON(w, out)
}

// enablePool installs the multi-tenant engine pool and its route
// family (-tenants):
//
//	POST /t/{tenant}/ingest      same bodies and backpressure as /ingest
//	GET  /t/{tenant}/report      the tenant's heavy hitters (404 unknown)
//	POST /t/{tenant}/checkpoint  the tenant's engine state, exportable
//	                             through l1hh.Unmarshal
//	GET  /t/{tenant}/stats       the tenant engine's operational snapshot
//	POST /t/{tenant}/vote        ballot ingest (voting-problem tenants)
//	GET  /t/{tenant}/winner      the tenant's voting winner
//	GET  /t/{tenant}/extremes    the tenant's frequency extreme
//	GET  /t/{tenant}/point       the tenant's per-item estimate
//
// Must run after finish and before the server starts serving. The
// single-tenant routes keep working against the default engine.
func (s *server) enablePool(p *l1hh.Pool) {
	s.pool = p
	s.mux.HandleFunc("POST /t/{tenant}/ingest", s.handleTenantIngest)
	s.mux.HandleFunc("GET /t/{tenant}/report", s.handleTenantReport)
	s.mux.HandleFunc("POST /t/{tenant}/checkpoint", s.handleTenantCheckpoint)
	s.mux.HandleFunc("GET /t/{tenant}/stats", s.handleTenantStats)
	s.mux.HandleFunc("POST /t/{tenant}/vote", s.handleTenantVote)
	s.mux.HandleFunc("GET /t/{tenant}/winner", s.handleTenantWinner)
	s.mux.HandleFunc("GET /t/{tenant}/extremes", s.handleTenantExtremes)
	s.mux.HandleFunc("GET /t/{tenant}/point", s.handleTenantPoint)
}

// handleTenantVote is POST /t/{tenant}/vote: ballot ingest against the
// tenant's engine, creating (or reviving) it on first touch — so a
// voting tenant spills and revives under the shared budget exactly
// like a heavy hitters tenant.
func (s *server) handleTenantVote(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	s.serveVote(w, r, func(rk l1hh.Ranking) error {
		return s.pool.Vote(tenant, rk)
	})
}

// handleTenantWinner is GET /t/{tenant}/winner: the tenant's voting
// winner, reviving the tenant if it was spilled (404 unknown).
func (s *server) handleTenantWinner(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	var (
		out *winnerResponse
		ok  bool
	)
	err := s.pool.View(tenant, func(hh l1hh.HeavyHitters) error {
		out, ok = winnerFor(hh)
		return nil
	})
	switch {
	case err != nil:
		tenantError(w, tenant, err)
	case !ok:
		httpError(w, http.StatusConflict,
			"winner: tenant %q does not aggregate ballots", tenant)
	default:
		writeJSON(w, out)
	}
}

// handleTenantExtremes is GET /t/{tenant}/extremes: the tenant's
// frequency extreme (404 unknown tenant, 409 wrong problem).
func (s *server) handleTenantExtremes(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	var (
		out  *extremesResponse
		ok   bool
		qerr error
	)
	err := s.pool.View(tenant, func(hh l1hh.HeavyHitters) error {
		out, ok, qerr = extremesFor(hh)
		return nil
	})
	switch {
	case err != nil:
		tenantError(w, tenant, err)
	case !ok:
		httpError(w, http.StatusConflict,
			"extremes: tenant %q does not track a frequency extreme", tenant)
	case qerr != nil:
		httpError(w, http.StatusConflict, "extremes: tenant %q: %v", tenant, qerr)
	default:
		writeJSON(w, out)
	}
}

// handleTenantPoint is GET /t/{tenant}/point?item=N: the tenant's
// per-item frequency estimate (404 unknown tenant).
func (s *server) handleTenantPoint(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	item := r.URL.Query().Get("item")
	if item == "" {
		httpError(w, http.StatusBadRequest, "point: missing ?item=N")
		return
	}
	x, perr := strconv.ParseUint(item, 10, 64)
	if perr != nil {
		httpError(w, http.StatusBadRequest, "point: bad item %q: %v", item, perr)
		return
	}
	var (
		out *pointResponse
		ok  bool
	)
	err := s.pool.View(tenant, func(hh l1hh.HeavyHitters) error {
		out, ok = pointFor(hh, x, s.spec.m)
		return nil
	})
	switch {
	case err != nil:
		tenantError(w, tenant, err)
	case !ok:
		httpError(w, http.StatusConflict,
			"point: tenant %q cannot bound a per-item estimate", tenant)
	default:
		writeJSON(w, out)
	}
}

// tenantError maps the pool tier's error vocabulary onto HTTP statuses
// for the /t/{tenant} read routes.
func tenantError(w http.ResponseWriter, tenant string, err error) {
	switch {
	case errors.Is(err, l1hh.ErrUnknownTenant):
		httpError(w, http.StatusNotFound, "unknown tenant %q", tenant)
	case errors.Is(err, l1hh.ErrInvalidTenant):
		httpError(w, http.StatusBadRequest,
			"invalid tenant name (want 1..%d bytes)", l1hh.MaxTenantName)
	case errors.Is(err, l1hh.ErrTenantBusy):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "tenant %q busy; retry", tenant)
	default:
		httpError(w, http.StatusInternalServerError, "tenant %q: %v", tenant, err)
	}
}

// handleTenantIngest is POST /t/{tenant}/ingest: the tenant-keyed twin
// of /ingest, creating (or reviving) the tenant's engine on first
// touch. With -shed-wait, a tenant whose engine stays busy past the
// bound sheds with 429 exactly like a saturated shard queue.
func (s *server) handleTenantIngest(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	s.serveIngest(w, r, func(batch []l1hh.Item) error {
		if s.shedWait > 0 {
			return s.pool.InsertBatchBounded(tenant, batch, s.shedWait)
		}
		return s.pool.InsertBatch(tenant, batch)
	})
}

// handleTenantReport is GET /t/{tenant}/report: the tenant engine's
// heavy hitters in the same reportResponse shape as /report, reviving
// the tenant if it was spilled. Unknown tenants answer 404 — a report
// never creates an engine.
func (s *server) handleTenantReport(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	start := time.Now()
	rep, err := s.pool.Report(tenant)
	if err != nil {
		tenantError(w, tenant, err)
		return
	}
	s.obs.report.ObserveDuration(time.Since(start))
	st, err := s.pool.TenantStats(tenant)
	if err != nil {
		tenantError(w, tenant, err)
		return
	}
	s.obs.observeSentinel(st)
	out := reportResponse{
		Len:          st.Len,
		Eps:          st.Eps,
		Phi:          st.Phi,
		ModelBits:    st.ModelBits,
		Shards:       st.Shards,
		HeavyHitters: make([]reportedItem, len(rep)),
	}
	for i, it := range rep {
		out.HeavyHitters[i] = reportedItem{Item: it.Item, Estimate: it.F}
	}
	// Tenant engines are single-owner, so the window meta omits the
	// sharded-geometry fields; the coverage numbers come straight from
	// the engine's Stats.
	if ws := st.Window; ws != nil {
		out.Window = &windowMeta{
			Shards:       st.Shards,
			Covered:      ws.Covered,
			Total:        ws.Total,
			Retired:      ws.Retired,
			CoveredMin:   ws.CoveredMin,
			CoveredMax:   ws.CoveredMax,
			ShareSkew:    ws.ShareSkew,
			Extrapolated: ws.Extrapolated,
			Buckets:      ws.Buckets,
			OldestMass:   ws.OldestMass,
			SpanSeconds:  ws.Span.Seconds(),
		}
	}
	writeJSON(w, out)
}

// handleTenantCheckpoint is POST /t/{tenant}/checkpoint: the tenant
// engine's serialized state — the same bytes l1hh.Unmarshal accepts, so
// one tenant can be exported out of the pool.
func (s *server) handleTenantCheckpoint(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	start := time.Now()
	blob, err := s.pool.Checkpoint(tenant)
	switch {
	case err == nil:
	case errors.Is(err, l1hh.ErrUnknownTenant),
		errors.Is(err, l1hh.ErrInvalidTenant),
		errors.Is(err, l1hh.ErrTenantBusy):
		tenantError(w, tenant, err)
		return
	default:
		httpError(w, http.StatusConflict, "checkpoint %q: %v", tenant, err)
		return
	}
	s.obs.ckptEncode.ObserveDuration(time.Since(start))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	w.Write(blob)
}

// tenantStatsResponse is the GET /t/{tenant}/stats body: the tenant
// engine's operational snapshot, with the accuracy-sentinel audit when
// one is attached (-sentinel-tenant).
type tenantStatsResponse struct {
	Tenant    string        `json:"tenant"`
	Items     uint64        `json:"items"`
	Len       uint64        `json:"len"`
	Eps       float64       `json:"eps"`
	Phi       float64       `json:"phi"`
	ModelBits int64         `json:"model_bits"`
	Sentinel  *sentinelMeta `json:"sentinel,omitempty"`
}

// sentinelMeta is the audit subset of l1hh.SentinelStats a monitoring
// client acts on.
type sentinelMeta struct {
	SampleRate     float64 `json:"sample_rate"`
	Checks         uint64  `json:"checks_total"`
	Violations     uint64  `json:"violations_total"`
	ObservedEps    float64 `json:"observed_eps"`
	MaxObservedEps float64 `json:"max_observed_eps"`
	Incoherent     bool    `json:"incoherent"`
}

func (s *server) handleTenantStats(w http.ResponseWriter, r *http.Request) {
	tenant := r.PathValue("tenant")
	st, err := s.pool.TenantStats(tenant)
	if err != nil {
		tenantError(w, tenant, err)
		return
	}
	out := tenantStatsResponse{
		Tenant:    tenant,
		Items:     st.Items,
		Len:       st.Len,
		Eps:       st.Eps,
		Phi:       st.Phi,
		ModelBits: st.ModelBits,
	}
	if sen := st.Sentinel; sen != nil {
		out.Sentinel = &sentinelMeta{
			SampleRate:     sen.SampleRate,
			Checks:         sen.Checks,
			Violations:     sen.Violations,
			ObservedEps:    sen.ObservedEps,
			MaxObservedEps: sen.MaxObservedEps,
			Incoherent:     sen.Incoherent,
		}
	}
	writeJSON(w, out)
}

// handleMerge folds a peer node's checkpoint blob (the body, as produced
// by POST /checkpoint on a node with the same configuration) into the
// live engine, without interrupting ingest. Engines that do not merge at
// all (sliding windows) and incompatible checkpoints (different
// parameters, seed, or shard count) get 409; undecodable ones 400.
// Merging the same checkpoint twice double-counts — callers own
// idempotence (the aggregator loop instead rebuilds from scratch each
// cycle).
func (s *server) handleMerge(w http.ResponseWriter, r *http.Request) {
	if s.rejectOnAggregator(w) {
		return
	}
	blob, err := io.ReadAll(io.LimitReader(r.Body, maxSnapshotBody+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading checkpoint: %v", err)
		return
	}
	if len(blob) > maxSnapshotBody {
		httpError(w, http.StatusRequestEntityTooLarge, "checkpoint exceeds %d bytes", maxSnapshotBody)
		return
	}
	// Hold the engine read lock across the merge so a concurrent
	// /restore or aggregator swap (which takes the write lock to replace
	// and close the engine) cannot discard this fold mid-flight and
	// leave it acknowledged with 200. Other readers — ingest, reports —
	// are unaffected; only swaps wait. A single-owner problem engine
	// takes the write lock instead: its Merge is unsynchronized.
	lock, unlock := s.mu.RLock, s.mu.RUnlock
	if s.serialEng {
		lock, unlock = s.mu.Lock, s.mu.Unlock
	}
	lock()
	eng := s.eng
	merger, ok := eng.(l1hh.Merger)
	if !ok {
		unlock()
		s.mergeErrors.Add(1)
		httpError(w, http.StatusConflict,
			"merge: this engine does not merge (sliding-window and sampled-tally states are not mergeable — DESIGN.md §8, §14)")
		return
	}
	start := time.Now()
	err = merger.Merge(blob)
	mergedLen := eng.Len()
	shards := 1
	if sh, ok := eng.(l1hh.Sharder); ok {
		shards = sh.Shards()
	}
	unlock()
	if err != nil {
		s.mergeErrors.Add(1)
		code := http.StatusBadRequest
		if errors.Is(err, l1hh.ErrIncompatibleMerge) {
			code = http.StatusConflict
		}
		httpError(w, code, "merge: %v", err)
		return
	}
	s.recordMerge(time.Since(start))
	writeJSON(w, map[string]any{
		"merged": true,
		"len":    mergedLen,
		"shards": shards,
	})
}

// recordMerge updates the cluster-merge metrics after a success.
func (s *server) recordMerge(d time.Duration) {
	s.mergesTotal.Add(1)
	s.mergeLastNano.Store(d.Nanoseconds())
	s.mergeLastUnix.Store(time.Now().UnixNano())
	s.obs.merge.ObserveDuration(d)
}

// rejectOnAggregator refuses state-mutating requests on a node running
// in aggregator mode: its engine is rebuilt from the peers' checkpoints
// every pull cycle, so anything written here would be acknowledged and
// then silently dropped at the next swap.
func (s *server) rejectOnAggregator(w http.ResponseWriter) bool {
	if len(s.peers) == 0 {
		return false
	}
	httpError(w, http.StatusConflict,
		"aggregator mode: local state is rebuilt from the %d configured peers each pull cycle; send this request to a worker", len(s.peers))
	return true
}

func (s *server) handleRestore(w http.ResponseWriter, r *http.Request) {
	if s.rejectOnAggregator(w) {
		return
	}
	blob, err := io.ReadAll(io.LimitReader(r.Body, maxSnapshotBody+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading snapshot: %v", err)
		return
	}
	if len(blob) > maxSnapshotBody {
		httpError(w, http.StatusRequestEntityTooLarge, "snapshot exceeds %d bytes", maxSnapshotBody)
		return
	}
	start := time.Now()
	restored, err := l1hh.Unmarshal(blob, s.spec.restore...)
	if err != nil {
		httpError(w, http.StatusBadRequest, "restore: %v", err)
		return
	}
	s.obs.ckptDecode.ObserveDuration(time.Since(start))
	if s.spec.problem != l1hh.HeavyHittersProblem {
		// Problem mode already serializes every engine access, so a
		// single-owner restore is fine — it just has to answer the same
		// problem family the daemon was started for.
		if got, want := problemKind(restored), kindForProblem(s.spec.problem); got != want {
			restored.Close()
			httpError(w, http.StatusBadRequest,
				"restore: checkpoint restores to a %s engine; -problem %s needs a %s engine", got, s.spec.problem, want)
			return
		}
	} else if _, ok := restored.(l1hh.Sharder); !ok {
		// The default daemon serves concurrent producers; a checkpoint
		// that restores to a single-owner solver (a serial or un-sharded
		// windowed state) must not be swapped in behind HTTP.
		restored.Close()
		httpError(w, http.StatusBadRequest,
			"restore: checkpoint restores to a single-owner solver; hhd needs a sharded container")
		return
	}
	st := restored.Stats()
	s.mu.Lock()
	old := s.eng
	s.eng = restored
	s.mu.Unlock()
	old.Close()
	s.resetRate(st.Items)
	writeJSON(w, map[string]any{
		"restored": true,
		"len":      st.Len,
		"shards":   st.Shards,
	})
}

// handleHealthz is liveness: always 200 while the process can serve
// HTTP at all. Routing decisions belong to /readyz.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{
		"status":   "ok",
		"uptime_s": time.Since(s.start).Seconds(),
	})
}

// handleReadyz is readiness: 503 while draining for shutdown or before
// the server can answer meaningful reports (an aggregator that has not
// completed its first pull). Load balancers should route on this, not
// on /healthz.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		httpError(w, http.StatusServiceUnavailable, "draining")
	case !s.ready.Load():
		httpError(w, http.StatusServiceUnavailable, "warming: waiting for the first successful peer pull")
	default:
		writeJSON(w, map[string]any{"status": "ready"})
	}
}
