package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
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
// set that builds a fresh default engine (aggregator rebuilds, startup)
// and the runtime subset that tunes a restored checkpoint; a tenant
// server (-tenants) uses only problem and m. The daemon never
// touches concrete solver types — everything behind l1hh.New and
// l1hh.Unmarshal is driven through l1hh.HeavyHitters plus the capability
// interfaces (Merger, Windower, Sharder).
type engineSpec struct {
	build   []l1hh.Option // for l1hh.New
	restore []l1hh.Option // for l1hh.Unmarshal (runtime tuning only)

	// problem is what the engines solve (-problem). Non-default
	// problems build single-owner engines: the shell skips the ingest
	// observer (their option vocabulary has no runtime tuning) and every
	// handler serializes engine access through withEngine.
	problem l1hh.Problem

	// m is the configured stream length (-m; 0 = unknown). /point quotes
	// its error bar against it — the engine's sampler is tuned for m, so
	// ε·len would understate the bound mid-stream.
	m uint64
}

// server wires one engine family to HTTP: either the default engine at
// the root routes, or (-tenants) a tenant pool under /t/{tenant}. All
// handlers are safe for concurrent use: ingest and queries take the
// default engine under a read lock; restore swaps it under the write
// lock.
type server struct {
	mux  *http.ServeMux
	spec engineSpec

	mu  sync.RWMutex
	eng l1hh.HeavyHitters // nil on a tenant server

	// serialEng flips every engine access to the write lock: set by
	// finish when the engine is not a Sharder (the problem engines —
	// voting, extremes — are single-owner and internally unsynchronized,
	// so the handlers provide the mutual exclusion).
	serialEng bool

	start time.Time

	// obs is the per-server metrics registry and the handles the
	// handlers write; the engine spec's ingest observer feeds it too.
	obs *serverObs

	// ready gates /readyz: true once the server can answer meaningful
	// reports (immediately on workers; after the first successful pull
	// on aggregators). draining flips on shutdown so load balancers
	// stop routing before the listener closes.
	ready    atomic.Bool
	draining atomic.Bool

	// reqSeq numbers requests for the access log and X-Request-Id.
	reqSeq atomic.Uint64

	// One engine Stats barrier serves every gauge of a metrics scrape:
	// the registry reads each GaugeFunc independently, so without the
	// cache a single GET /metrics would pay one all-shards barrier per
	// gauge.
	statsMu    sync.Mutex
	statsAt    time.Time
	statsCache l1hh.Stats

	// peers is the aggregator configuration: worker base URLs this node
	// pulls checkpoints from. Set once before the server starts serving;
	// empty on workers.
	peers []string

	// pool is the multi-tenant engine pool behind the /t/{tenant}/*
	// route family (-tenants); nil on an engine server. Installed by
	// enablePool before the server starts serving, never swapped.
	pool *l1hh.Pool

	// Load shedding (-shed-wait): how long an ingest request may wait on
	// saturated shard queues before answering 429. Zero keeps the legacy
	// blocking backpressure.
	shedWait time.Duration

	// maxIngestBytes bounds one /ingest or /vote body (0 = unlimited);
	// oversized requests answer 413 instead of streaming forever.
	maxIngestBytes int64

	// When the last merge succeeded and the last snapshot was stored
	// (UnixNano; 0 = never): the age gauges derive from them at scrape
	// time. The counts themselves live in obs.
	mergeLastUnix atomic.Int64
	ckptLastUnix  atomic.Int64
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
// spans one registry pass without making dashboards visibly stale.
const statsTTL = 250 * time.Millisecond

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
	eng, err := s.unmarshal(blob)
	if err != nil {
		return nil, err
	}
	s.finish(eng)
	return s, nil
}

// unmarshal decodes a checkpoint into an engine this daemon can serve —
// the one restore gate, shared by startup and /restore. In problem mode
// every engine access serializes anyway, so a single-owner engine is
// fine as long as it answers the problem family the flags asked for;
// the default daemon serves concurrent producers, so a checkpoint that
// restores to a single-owner solver (a serial or un-sharded windowed
// state) must not be served behind HTTP.
func (s *server) unmarshal(blob []byte) (l1hh.HeavyHitters, error) {
	start := time.Now()
	eng, err := l1hh.Unmarshal(blob, s.spec.restore...)
	if err != nil {
		return nil, err
	}
	s.obs.ckptDecode.ObserveDuration(time.Since(start))
	if s.spec.problem != l1hh.HeavyHittersProblem {
		if got, want := problemKind(eng), kindForProblem(s.spec.problem); got != want {
			eng.Close()
			return nil, fmt.Errorf("checkpoint restores to a %s engine; -problem %s needs a %s engine", got, s.spec.problem, want)
		}
	} else if _, ok := eng.(l1hh.Sharder); !ok {
		eng.Close()
		return nil, errors.New("checkpoint restores to a single-owner solver; hhd needs a sharded container")
	}
	return eng, nil
}

// swap installs eng as the serving engine (/restore, the aggregator's
// pull cycle) and closes the one it replaces. The write lock waits out
// every withEngine call in flight — an ingest batch, a merge, a report
// — so none of them runs on a closed engine. The cached scrape
// snapshot is dropped, so the next scrape reads eng.
func (s *server) swap(eng l1hh.HeavyHitters) l1hh.Stats {
	st := eng.Stats()
	s.mu.Lock()
	old := s.eng
	s.eng = eng
	s.mu.Unlock()
	old.Close()
	s.statsMu.Lock()
	s.statsAt = time.Time{}
	s.statsMu.Unlock()
	return st
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

// newShell allocates the server, its metrics registry and the routes
// every server answers (/healthz, /readyz, /metrics) BEFORE any engine
// exists: the stage histograms must be live so the ingest observer
// option — appended to both option sets here — can reference them from
// every engine the server will ever run (initial build, checkpoint
// restore, aggregator rebuilds), and the pool observer from the tenant
// pool. finish or enablePool then installs the one engine family the
// server serves.
func newShell(spec engineSpec) *server {
	s := &server{spec: spec, start: time.Now(), mux: http.NewServeMux()}
	s.obs = newServerObs(s)
	if spec.problem == l1hh.HeavyHittersProblem {
		// The problem engines take no runtime tuning — their option
		// vocabulary (and their checkpoints' Unmarshal) reject the
		// observer, so only the heavy hitters stack gets the stage hooks.
		timings := s.obs.ingestTimings()
		s.spec.build = append(s.spec.build, l1hh.WithIngestObserver(timings))
		s.spec.restore = append(s.spec.restore, l1hh.WithIngestObserver(timings))
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.ready.Store(true) // aggregator mode lowers it again before serving
	return s
}

// finish installs the default engine, its routes at the root, /merge,
// /restore and the engine metric families.
func (s *server) finish(eng l1hh.HeavyHitters) {
	s.eng = eng
	_, sharded := eng.(l1hh.Sharder)
	s.serialEng = !sharded
	s.routeEngine("")
	s.mux.HandleFunc("POST /merge", s.handleMerge)
	s.mux.HandleFunc("POST /restore", s.handleRestore)
	s.obs.registerEngine(s)
}

// enablePool installs the multi-tenant engine pool (-tenants) on a
// shell and registers the engine endpoints under /t/{tenant}: the same
// handlers as the root routes of an engine server, resolving the
// tenant's engine. Must run before the server starts serving. A tenant
// server builds no default engine, so its root engine routes, /merge
// and /restore are not registered and answer 404.
func (s *server) enablePool(p *l1hh.Pool) {
	s.pool = p
	s.routeEngine("/t/{tenant}")
}

// routeEngine registers the engine endpoints under prefix: "" for the
// default engine (finish), "/t/{tenant}" for the pool's tenants
// (enablePool). Each handler resolves its engine through s.target, so
// the two route families share one implementation.
func (s *server) routeEngine(prefix string) {
	s.mux.HandleFunc("POST "+prefix+"/ingest", s.handleIngest)
	s.mux.HandleFunc("GET "+prefix+"/report", s.handleReport)
	s.mux.HandleFunc("POST "+prefix+"/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("GET "+prefix+"/stats", s.handleStats)
	s.mux.HandleFunc("POST "+prefix+"/vote", s.handleVote)
	s.mux.HandleFunc("GET "+prefix+"/winner", s.handleWinner)
	s.mux.HandleFunc("GET "+prefix+"/extremes", s.handleExtremes)
	s.mux.HandleFunc("GET "+prefix+"/point", s.handlePoint)
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
// withEngine's discipline (the coordinator, the shutdown checkpoint).
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
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	if !s.statsAt.IsZero() && time.Since(s.statsAt) < statsTTL {
		return s.statsCache
	}
	s.statsCache = s.engineStats()
	s.statsAt = time.Now()
	return s.statsCache
}

// shutdown stops accepting state changes and drains the default engine,
// or the pool's resident engines, so the final checkpoint reflects
// every accepted item.
func (s *server) shutdown() error {
	if s.pool != nil {
		return s.pool.Close()
	}
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

// target is the engine one request addresses: the default engine on
// an engine server's root routes, the named tenant's engine under
// /t/{tenant} on a tenant server. Its operations take the engine under
// the discipline its owner needs — withEngine for the default engine,
// the tenant's serialization inside the pool — and never hand it out,
// so an engine swap or a spill can never close an engine a handler
// still holds.
type target struct {
	s      *server
	tenant string // "" on the root routes
}

func (s *server) target(r *http.Request) target {
	return target{s: s, tenant: r.PathValue("tenant")}
}

// String names the target in error messages.
func (t target) String() string {
	if t.tenant == "" {
		return "this engine"
	}
	return fmt.Sprintf("tenant %q", t.tenant)
}

// view runs f over the engine without ever creating one: a tenant never
// written to answers ErrUnknownTenant, and a spilled one is revived.
func (t target) view(f func(eng l1hh.HeavyHitters)) error {
	if t.tenant == "" {
		t.s.withEngine(f)
		return nil
	}
	return t.s.pool.View(t.tenant, func(eng l1hh.HeavyHitters) error {
		f(eng)
		return nil
	})
}

// insert applies one ingest batch, creating the tenant's engine on
// first touch. With -shed-wait the wait is bounded: a saturated shard
// queue answers ErrSaturated, a tenant engine that stays busy
// ErrTenantBusy.
func (t target) insert(batch []l1hh.Item) error {
	s := t.s
	if t.tenant != "" {
		if s.shedWait > 0 {
			return s.pool.InsertBatchBounded(t.tenant, batch, s.shedWait)
		}
		return s.pool.InsertBatch(t.tenant, batch)
	}
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

// vote counts one ballot, creating the tenant's engine on first touch;
// ErrNotRankings when the engine does not aggregate ballots.
func (t target) vote(rk l1hh.Ranking) error {
	if t.tenant != "" {
		return t.s.pool.Vote(t.tenant, rk)
	}
	err := l1hh.ErrNotRankings
	t.s.withEngine(func(eng l1hh.HeavyHitters) {
		if v, ok := eng.(l1hh.Voter); ok {
			err = v.Vote(rk)
		}
	})
	return err
}

// tenantError maps the pool tier's error vocabulary onto HTTP statuses
// for a target that could not be resolved.
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

// ingestBody is the request body under the -max-ingest-bytes limit.
func (s *server) ingestBody(w http.ResponseWriter, r *http.Request) io.Reader {
	if s.maxIngestBytes > 0 {
		return http.MaxBytesReader(w, r.Body, s.maxIngestBytes)
	}
	return r.Body
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
// its acknowledged prefix before retrying (DESIGN.md §12). A bounded
// wait that expires surfaces as 429 whether the engine's shard queues
// stayed saturated (ErrSaturated) or the tenant's engine stayed busy
// (ErrTenantBusy). Bodies over -max-ingest-bytes answer 413.
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.rejectOnAggregator(w) {
		return
	}
	insert := s.target(r).insert
	body := s.ingestBody(w, r)
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
			s.obs.shed.Inc()
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

// eachLine calls fn with every non-blank line of an NDJSON body,
// trimmed, and prefixes fn's error with the line number; buf is the
// scanner's initial buffer. A last line without a newline counts only
// at a clean EOF. After a failed read — a body cut by -max-ingest-bytes
// or a dropped connection — the unterminated tail is a fragment of
// whatever the client sent, so eachLine stops with the read error
// instead of handing the fragment to fn.
func eachLine(body io.Reader, buf []byte, fn func(line string) error) error {
	rd := &failedRead{r: body}
	sc := bufio.NewScanner(rd)
	sc.Buffer(buf[:0], 1<<20)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		// The scanner reports atEOF after any read error, not only io.EOF.
		return bufio.ScanLines(data, atEOF && rd.err == nil)
	})
	for lineno := 1; sc.Scan(); lineno++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if err := fn(line); err != nil {
			return fmt.Errorf("line %d: %w", lineno, err)
		}
	}
	return sc.Err()
}

// failedRead remembers the first read error other than io.EOF.
type failedRead struct {
	r   io.Reader
	err error
}

func (f *failedRead) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if err != nil && err != io.EOF && f.err == nil {
		f.err = err
	}
	return n, err
}

// lineCount resolves an NDJSON line's optional "count": absent means
// once, and one line may not expand past maxLineCount.
func lineCount(count *uint64) (uint64, error) {
	switch {
	case count == nil:
		return 1, nil
	case *count > maxLineCount:
		return 0, fmt.Errorf("count %d exceeds limit %d", *count, maxLineCount)
	}
	return *count, nil
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
	err := eachLine(body, bufs.buf, func(line string) (err error) {
		id, count := uint64(0), uint64(1)
		if line[0] == '{' {
			var l ndjsonLine
			if err = json.Unmarshal([]byte(line), &l); err != nil {
				return err
			}
			id = l.Item
			if count, err = lineCount(l.Count); err != nil {
				return err
			}
		} else if id, err = strconv.ParseUint(line, 10, 64); err != nil {
			return err
		}
		for ; count > 0; count-- {
			batch = append(batch, id)
			if len(batch) == cap(batch) {
				if err := flush(); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
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

// handleReport is GET /report: the heavy hitters, read from the same
// engine visit as the Stats that describe them. A tenant report never
// creates an engine (404 unknown) and revives a spilled one; the report
// stage times Report alone, the revive lands in pool_revive.
func (s *server) handleReport(w http.ResponseWriter, r *http.Request) {
	t := s.target(r)
	var (
		rep    []l1hh.ItemEstimate
		st     l1hh.Stats
		winN   uint64
		winDur time.Duration
	)
	err := t.view(func(eng l1hh.HeavyHitters) {
		start := time.Now()
		rep = eng.Report()
		s.obs.report.ObserveDuration(time.Since(start))
		st = eng.Stats()
		if win, ok := eng.(l1hh.Windower); ok {
			winN, winDur, _ = win.Window()
		}
	})
	if err != nil {
		tenantError(w, t.tenant, err)
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
	if ws := st.Window; ws != nil {
		out.Window = &windowMeta{
			Window:          winN,
			DurationSeconds: winDur.Seconds(),
			Shards:          st.Shards,
			PerShardWindow:  ws.PerShardWindow,
			Covered:         ws.Covered,
			Total:           ws.Total,
			Retired:         ws.Retired,
			CoveredMin:      ws.CoveredMin,
			CoveredMax:      ws.CoveredMax,
			ShareSkew:       ws.ShareSkew,
			Extrapolated:    ws.Extrapolated,
			Buckets:         ws.Buckets,
			OldestMass:      ws.OldestMass,
			SpanSeconds:     ws.Span.Seconds(),
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

// handleCheckpoint is POST /checkpoint: the engine's serialized state.
// A tenant's checkpoint is a plain solver frame — the bytes
// l1hh.Unmarshal accepts — so one tenant can be exported out of the
// pool.
func (s *server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	t := s.target(r)
	var (
		blob []byte
		merr error
	)
	start := time.Now()
	if err := t.view(func(eng l1hh.HeavyHitters) { blob, merr = eng.MarshalBinary() }); err != nil {
		tenantError(w, t.tenant, err)
		return
	}
	if merr != nil {
		httpError(w, http.StatusConflict, "checkpoint: %v", merr)
		return
	}
	s.obs.ckptEncode.ObserveDuration(time.Since(start))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	w.Write(blob)
}

// statsResponse is the GET /stats body: the engine's operational
// snapshot, with the accuracy-sentinel audit when one is attached
// (-sentinel, -sentinel-tenant). Tenant is empty on the root route.
type statsResponse struct {
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

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	t := s.target(r)
	var st l1hh.Stats
	if err := t.view(func(eng l1hh.HeavyHitters) { st = eng.Stats() }); err != nil {
		tenantError(w, t.tenant, err)
		return
	}
	out := statsResponse{
		Tenant:    t.tenant,
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

// voteLine is the object form of a /vote NDJSON line. Count is a
// pointer so an explicit "count": 0 (a no-op ballot) is distinct from
// an absent count (vote once).
type voteLine struct {
	Ranking []uint32 `json:"ranking"`
	Count   *uint64  `json:"count"`
}

// handleVote is POST /vote: ballot ingest for the voting problems
// (-problem borda|maximin). The body is NDJSON: one ballot per line,
// either a bare JSON array of candidate ids (most preferred first) —
// "[2,0,1]" — or {"ranking": [...], "count": k} to count a ballot k
// times. Responds {"accepted": n} ballots; on an error, ballots before
// the failing line were already counted, and the error reports how
// many, matching /ingest's partial-acceptance contract. A heavy hitters
// or extremes engine answers 409 — the capability is discovered by
// assertion, never assumed. A voting tenant is created on first touch
// and spills and revives under the shared budget like any other.
func (s *server) handleVote(w http.ResponseWriter, r *http.Request) {
	if s.rejectOnAggregator(w) {
		return
	}
	t := s.target(r)
	start := time.Now()
	accepted, err := decodeVotes(t.vote, s.ingestBody(w, r))
	s.obs.votes.Add(accepted)
	var mbe *http.MaxBytesError
	switch {
	case err == nil:
		s.obs.ingestDecode.ObserveDuration(time.Since(start))
		writeJSON(w, map[string]uint64{"accepted": accepted})
	case errors.Is(err, l1hh.ErrUnknownTenant), errors.Is(err, l1hh.ErrInvalidTenant),
		errors.Is(err, l1hh.ErrTenantBusy):
		tenantError(w, t.tenant, err)
	case errors.Is(err, l1hh.ErrNotRankings):
		httpError(w, http.StatusConflict, "after %d ballots: %v", accepted, err)
	case errors.As(err, &mbe):
		httpError(w, http.StatusRequestEntityTooLarge,
			"after %d ballots: body exceeds the %d-byte ingest limit", accepted, mbe.Limit)
	default:
		httpError(w, http.StatusBadRequest, "after %d ballots: %v", accepted, err)
	}
}

// decodeVotes feeds every ballot of a /vote body through vote and
// returns how many were counted.
func decodeVotes(vote func(l1hh.Ranking) error, body io.Reader) (uint64, error) {
	bufs := ingestPool.Get().(*ingestBuffers)
	defer ingestPool.Put(bufs)
	var accepted uint64
	err := eachLine(body, bufs.buf, func(line string) (err error) {
		var rk l1hh.Ranking
		count := uint64(1)
		if line[0] == '{' {
			var l voteLine
			if err = json.Unmarshal([]byte(line), &l); err != nil {
				return err
			}
			rk = l.Ranking
			if count, err = lineCount(l.Count); err != nil {
				return err
			}
		} else if err = json.Unmarshal([]byte(line), &rk); err != nil {
			return err
		}
		for ; count > 0; count-- {
			if err := vote(rk); err != nil {
				return err
			}
			accepted++
		}
		return nil
	})
	return accepted, err
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
	t := s.target(r)
	var (
		out *winnerResponse
		ok  bool
	)
	if err := t.view(func(eng l1hh.HeavyHitters) { out, ok = winnerFor(eng) }); err != nil {
		tenantError(w, t.tenant, err)
		return
	}
	if !ok {
		httpError(w, http.StatusConflict,
			"winner: %v does not aggregate ballots; start hhd with -problem borda or -problem maximin", t)
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
	t := s.target(r)
	var (
		out  *extremesResponse
		ok   bool
		qerr error
	)
	if err := t.view(func(eng l1hh.HeavyHitters) { out, ok, qerr = extremesFor(eng) }); err != nil {
		tenantError(w, t.tenant, err)
		return
	}
	switch {
	case !ok:
		httpError(w, http.StatusConflict,
			"extremes: %v does not track a frequency extreme; start hhd with -problem minfreq or -problem maxfreq", t)
	case qerr != nil:
		httpError(w, http.StatusConflict, "extremes: %v", qerr)
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
	t := s.target(r)
	var (
		out *pointResponse
		ok  bool
	)
	if err := t.view(func(eng l1hh.HeavyHitters) { out, ok = pointFor(eng, x, s.spec.m) }); err != nil {
		tenantError(w, t.tenant, err)
		return
	}
	if !ok {
		httpError(w, http.StatusConflict,
			"point: %v cannot bound a per-item estimate (unknown stream length, sliding window, or a non-frequency problem)", t)
		return
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
	// The merge runs inside withEngine so a concurrent /restore or
	// aggregator swap cannot close the engine mid-fold and leave the
	// merge acknowledged with 200 but discarded.
	var (
		mergedLen uint64
		shards    = 1
		start     time.Time
	)
	s.withEngine(func(eng l1hh.HeavyHitters) {
		merger, ok := eng.(l1hh.Merger)
		if !ok {
			err = errNotMergeable
			return
		}
		start = time.Now()
		err = merger.Merge(blob)
		mergedLen = eng.Len()
		if sh, ok := eng.(l1hh.Sharder); ok {
			shards = sh.Shards()
		}
	})
	if err != nil {
		s.obs.mergeErrors.Inc()
		code := http.StatusBadRequest
		if errors.Is(err, l1hh.ErrIncompatibleMerge) || errors.Is(err, errNotMergeable) {
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

// errNotMergeable is /merge's answer for an engine without the Merger
// capability.
var errNotMergeable = errors.New("this engine does not merge (sliding-window and sampled-tally states are not mergeable — DESIGN.md §8, §14)")

// recordMerge updates the cluster-merge metrics after a success.
func (s *server) recordMerge(d time.Duration) {
	s.obs.merges.Inc()
	s.obs.mergeLatency.Set(d.Seconds())
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
	restored, err := s.unmarshal(blob)
	if err != nil {
		httpError(w, http.StatusBadRequest, "restore: %v", err)
		return
	}
	st := s.swap(restored)
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
