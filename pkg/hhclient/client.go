// Package hhclient is the importable ingest client for the hhd daemon
// (cmd/hhd). It batches items in a bounded in-memory queue, flushes by
// size and by age on a background goroutine, and retries retryable
// failures (429 load sheds, 5xx, transport errors) with exponential
// backoff and jitter, honoring Retry-After.
//
// Delivery is at-least-once up to acknowledgment (DESIGN.md §12): an
// item counted in Stats().Acked was applied by the daemon at least
// once; an item counted in Stats().Dropped was abandoned after the
// retry budget and may have been applied zero times. A 429 shed
// response names the prefix of the batch the daemon applied, and the
// client trims it before resending — so duplicates are bounded by
// Stats().RetriedItems, not by total traffic.
package hhclient

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Defaults for the tunables; see the corresponding With options.
const (
	DefaultBatchSize     = 4096
	DefaultFlushInterval = 50 * time.Millisecond
	DefaultQueueSize     = 1 << 16
	DefaultMaxRetries    = 8
	DefaultBackoffBase   = 10 * time.Millisecond
	DefaultBackoffCap    = 2 * time.Second
)

// Stats is a point-in-time snapshot of the client's delivery counters.
// The identity Enqueued = Acked + Dropped + Queued holds at quiescence;
// Queued includes both the in-memory queue and the in-flight batch.
type Stats struct {
	// Enqueued counts items accepted by Add/AddBatch.
	Enqueued uint64
	// Acked counts items acknowledged by the daemon (applied at least
	// once).
	Acked uint64
	// Retried counts re-send attempts (one per backoff cycle, however
	// many items the resent batch carried).
	Retried uint64
	// RetriedItems counts items that were re-sent at least once — an
	// upper bound on duplicate applications at the daemon.
	RetriedItems uint64
	// Dropped counts items abandoned after the retry budget, a terminal
	// server error, or client shutdown.
	Dropped uint64
	// Queued is Enqueued − Acked − Dropped: items still owned by the
	// client (queued or in flight).
	Queued uint64
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient replaces the underlying *http.Client (and therefore
// the transport — handy for fault injection in tests).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithBatchSize sets how many items a flush carries at most. A batch
// never exceeds the queue: past WithQueueSize, a full queue is a full
// batch.
func WithBatchSize(n int) Option {
	return func(c *Client) {
		if n > 0 {
			c.batchSize = n
		}
	}
}

// WithFlushInterval sets the age-based flush: a non-empty batch is sent
// at least this often even if it never fills.
func WithFlushInterval(d time.Duration) Option {
	return func(c *Client) {
		if d > 0 {
			c.flushEvery = d
		}
	}
}

// WithQueueSize bounds the in-memory queue; Add returns ErrQueueFull
// beyond it.
func WithQueueSize(n int) Option {
	return func(c *Client) {
		if n > 0 {
			c.queueSize = n
		}
	}
}

// WithMaxRetries sets how many times one batch is re-sent before its
// remaining items are dropped.
func WithMaxRetries(n int) Option {
	return func(c *Client) {
		if n >= 0 {
			c.maxRetries = n
		}
	}
}

// WithBackoff sets the exponential backoff schedule: attempt n sleeps
// roughly base·2ⁿ (half fixed, half jitter), never more than cap. A
// server Retry-After overrides the computed delay.
func WithBackoff(base, cap time.Duration) Option {
	return func(c *Client) {
		if base > 0 {
			c.backoffBase = base
		}
		if cap > 0 {
			c.backoffCap = cap
		}
	}
}

// WithSeed seeds the jitter source, making backoff sequences
// reproducible in tests.
func WithSeed(seed int64) Option { return func(c *Client) { c.seed = seed } }

// WithTenant points the client at one tenant of a multi-tenant daemon
// (-tenants on cmd/hhd): ingest posts to /t/{tenant}/ingest and Report
// reads /t/{tenant}/report. The name is URL-escaped here, so any
// tenant the daemon accepts (spaces, slashes, up to 512 bytes) is safe
// to pass verbatim. An empty name keeps the single-tenant routes.
func WithTenant(tenant string) Option {
	return func(c *Client) {
		if tenant != "" {
			c.pathPrefix = "/t/" + url.PathEscape(tenant)
		}
	}
}

// WithMetrics registers the client's counters (hhclient_*) on an obs
// registry, typically the one the embedding process already exposes.
func WithMetrics(reg *obs.Registry) Option { return func(c *Client) { c.reg = reg } }

// Client streams items to one hhd daemon. Create with New; it is safe
// for concurrent use. Add/AddBatch never block — a full queue is the
// caller's backpressure signal.
//
// The queue is a fixed ring under one mutex, so an AddBatch costs one
// lock and one copy however many items it carries. A background worker
// copies batches out and encodes and sends them without the lock.
type Client struct {
	baseURL string
	// pathPrefix is "/t/{tenant}" under WithTenant, empty otherwise.
	pathPrefix string
	hc         *http.Client
	batchSize  int
	flushEvery time.Duration
	queueSize  int
	maxRetries int
	backoffBase,
	backoffCap time.Duration
	seed int64
	reg  *obs.Registry

	// mu guards the ring and closed. The n queued items sit at
	// ring[head], ring[head+1], … (wrapping), oldest first.
	mu      sync.Mutex
	ring    []uint64
	head, n int
	closed  bool
	// kick (one slot) wakes the worker when the queue reaches a full
	// batch.
	kick    chan struct{}
	flushCh chan chan struct{}

	enqueued, acked, retried, retriedItems, dropped atomic.Uint64
	lastErr                                         atomic.Value // error

	// rng is owned by the worker goroutine (jitter only).
	rng *rand.Rand
	// sleep is the retry delay; tests replace it to pin backoff
	// schedules without real sleeps.
	sleep func(ctx context.Context, d time.Duration) error

	ctx        context.Context
	cancel     context.CancelFunc
	workerDone chan struct{}
}

// New returns a running client for the daemon at baseURL (scheme and
// host, e.g. "http://localhost:8080"). Close it to flush and release
// the background flusher.
func New(baseURL string, opts ...Option) (*Client, error) {
	baseURL = strings.TrimSuffix(baseURL, "/")
	if baseURL == "" {
		return nil, errors.New("hhclient: empty base URL")
	}
	c := &Client{
		baseURL:     baseURL,
		hc:          http.DefaultClient,
		batchSize:   DefaultBatchSize,
		flushEvery:  DefaultFlushInterval,
		queueSize:   DefaultQueueSize,
		maxRetries:  DefaultMaxRetries,
		backoffBase: DefaultBackoffBase,
		backoffCap:  DefaultBackoffCap,
		seed:        1,
		sleep:       sleepCtx,
	}
	for _, o := range opts {
		o(c)
	}
	c.batchSize = min(c.batchSize, c.queueSize)
	c.rng = rand.New(rand.NewSource(c.seed))
	c.ring = make([]uint64, c.queueSize)
	c.kick = make(chan struct{}, 1)
	c.flushCh = make(chan chan struct{})
	c.ctx, c.cancel = context.WithCancel(context.Background())
	c.workerDone = make(chan struct{})
	if c.reg != nil {
		c.register(c.reg)
	}
	go c.worker()
	return c, nil
}

// register wires the delivery counters into an obs registry.
func (c *Client) register(reg *obs.Registry) {
	reg.CounterFunc("hhclient_enqueued_total", "Items accepted into the client queue.",
		nil, func() float64 { return float64(c.enqueued.Load()) })
	reg.CounterFunc("hhclient_acked_total", "Items acknowledged by the daemon.",
		nil, func() float64 { return float64(c.acked.Load()) })
	reg.CounterFunc("hhclient_retried_total", "Batch re-send attempts.",
		nil, func() float64 { return float64(c.retried.Load()) })
	reg.CounterFunc("hhclient_dropped_total", "Items abandoned after the retry budget or shutdown.",
		nil, func() float64 { return float64(c.dropped.Load()) })
	reg.GaugeFunc("hhclient_queue_depth", "Items queued or in flight.",
		nil, func() float64 { return float64(c.Stats().Queued) })
}

// Add enqueues one item for asynchronous delivery; it is AddBatch of
// one item, and AddBatch is the faster path for many. It never blocks:
// ErrQueueFull means the queue is at capacity and the item was NOT
// taken; ErrClosed means the client is shut down.
func (c *Client) Add(item uint64) error {
	_, err := c.AddBatch([]uint64{item})
	return err
}

// AddBatch enqueues as many leading items as fit, returning how many
// were taken. A short count comes with ErrQueueFull; the caller owns
// the remainder items[n:]. The whole call takes the queue lock once.
func (c *Client) AddBatch(items []uint64) (int, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return 0, ErrClosed
	}
	before := c.n
	k := min(len(items), len(c.ring)-before)
	tail := c.head + before
	if tail >= len(c.ring) {
		tail -= len(c.ring)
	}
	copied := copy(c.ring[tail:], items[:k])
	copy(c.ring, items[copied:k])
	c.n += k
	c.enqueued.Add(uint64(k))
	c.mu.Unlock()
	// Wake the worker when this call completes a batch. Only a crossing
	// needs a kick: the worker re-arms the kick itself while a full batch
	// remains, so above the line one is already pending or being served.
	if before < c.batchSize && before+k >= c.batchSize {
		c.wake()
	}
	if k < len(items) {
		return k, ErrQueueFull
	}
	return k, nil
}

// Flush sends everything enqueued before the call and waits until the
// daemon has acknowledged (or the retry budget dropped) each item.
func (c *Client) Flush(ctx context.Context) error {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return ErrClosed
	}
	return c.flush(ctx)
}

func (c *Client) flush(ctx context.Context) error {
	ack := make(chan struct{})
	select {
	case c.flushCh <- ack:
	case <-ctx.Done():
		return ctx.Err()
	case <-c.ctx.Done():
		return ErrClosed
	}
	select {
	case <-ack:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close flushes pending items, stops the background flusher, and makes
// every later Add fail with ErrClosed. The context bounds how long the
// final flush may take; on expiry, unsent items are dropped.
func (c *Client) Close(ctx context.Context) error {
	// Set under the queue lock: every AddBatch either appended before
	// this point, and the final flush sends its items, or sees closed.
	c.mu.Lock()
	closed := c.closed
	c.closed = true
	c.mu.Unlock()
	if closed {
		return ErrClosed
	}
	err := c.flush(ctx)
	c.cancel()
	select {
	case <-c.workerDone:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	return err
}

// Stats returns a snapshot of the delivery counters.
func (c *Client) Stats() Stats {
	s := Stats{
		Enqueued:     c.enqueued.Load(),
		Acked:        c.acked.Load(),
		Retried:      c.retried.Load(),
		RetriedItems: c.retriedItems.Load(),
		Dropped:      c.dropped.Load(),
	}
	if resolved := s.Acked + s.Dropped; s.Enqueued > resolved {
		s.Queued = s.Enqueued - resolved
	}
	return s
}

// LastError returns the most recent error that caused items to be
// dropped, or nil. Acked-after-retry successes do not set it.
func (c *Client) LastError() error {
	if v := c.lastErr.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// worker is the background flusher: it sends a batch when a full one is
// queued (size flush), when flushEvery elapses (age flush), or when a
// Flush barrier arrives.
func (c *Client) worker() {
	defer close(c.workerDone)
	batch := make([]uint64, c.batchSize)
	timer := time.NewTimer(c.flushEvery)
	defer timer.Stop()
	for {
		select {
		case <-c.ctx.Done():
			// Shutdown: whatever is still queued is dropped, under the lock
			// AddBatch appends under, keeping the Stats identity intact.
			c.mu.Lock()
			c.dropped.Add(uint64(c.n))
			c.n = 0
			c.mu.Unlock()
			return
		case <-c.kick:
			// One batch per wake, so that a Flush barrier, the timer and
			// shutdown still get their turn while producers keep the queue
			// full.
			b, left := c.take(batch, c.batchSize)
			if len(b) > 0 {
				c.send(b)
			}
			if left >= c.batchSize {
				c.wake()
			}
		case <-timer.C:
			c.sendQueued(batch)
			timer.Reset(c.flushEvery)
		case ack := <-c.flushCh:
			c.sendQueued(batch)
			close(ack)
		}
	}
}

// sendQueued sends the items queued now, oldest first, in batches of at
// most batchSize. Items that arrive meanwhile wait for the next flush,
// so a steady producer cannot hold up an age flush or a barrier.
func (c *Client) sendQueued(batch []uint64) {
	c.mu.Lock()
	owed := c.n
	c.mu.Unlock()
	for owed > 0 {
		b, _ := c.take(batch[:min(owed, len(batch))], 1)
		if len(b) == 0 {
			return
		}
		c.send(b)
		owed -= len(b)
	}
}

// take moves up to len(dst) of the oldest queued items into dst,
// provided at least least items are queued, and returns them with the
// count left queued. Once the client is shutting down it takes nothing:
// the worker's final drop owns what is left.
func (c *Client) take(dst []uint64, least int) (batch []uint64, left int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n < least || c.ctx.Err() != nil {
		return dst[:0], 0
	}
	k := min(c.n, len(dst))
	copied := copy(dst[:k], c.ring[c.head:])
	copy(dst[copied:k], c.ring)
	c.head += k
	if c.head >= len(c.ring) {
		c.head -= len(c.ring)
	}
	c.n -= k
	return dst[:k], c.n
}

// wake kicks the worker unless a kick is already pending.
func (c *Client) wake() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// send delivers one batch, retrying retryable failures until acked,
// out of budget, or shut down. A 429's acked prefix is trimmed before
// each resend.
func (c *Client) send(batch []uint64) {
	body := make([]byte, 8*len(batch))
	for i, it := range batch {
		binary.LittleEndian.PutUint64(body[8*i:], it)
	}
	remaining := uint64(len(batch))
	for attempt := 0; ; attempt++ {
		err := c.post(body)
		if err == nil {
			c.acked.Add(remaining)
			return
		}
		var ae *APIError
		retryAfter := time.Duration(0)
		if errors.As(err, &ae) {
			retryAfter = ae.RetryAfter
			if n := min(ae.Accepted, remaining); n > 0 {
				c.acked.Add(n)
				remaining -= n
				body = body[8*n:]
				if remaining == 0 {
					return
				}
			}
		}
		if !IsRetryable(err) || attempt >= c.maxRetries {
			c.dropped.Add(remaining)
			c.lastErr.Store(err)
			return
		}
		delay := c.backoff(attempt)
		if retryAfter > 0 {
			delay = retryAfter
		}
		if c.sleep(c.ctx, delay) != nil {
			c.dropped.Add(remaining)
			c.lastErr.Store(err)
			return
		}
		c.retried.Add(1)
		c.retriedItems.Add(remaining)
	}
}

// post performs one POST /ingest with a binary little-endian body.
// nil means every item in the body was acknowledged.
func (c *Client) post(body []byte) error {
	req, err := http.NewRequestWithContext(c.ctx, http.MethodPost, c.baseURL+c.pathPrefix+"/ingest", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return nil
	}
	ae := &APIError{Status: resp.StatusCode}
	var payload struct {
		Error    string `json:"error"`
		Accepted uint64 `json:"accepted"`
	}
	if b, err := io.ReadAll(io.LimitReader(resp.Body, 64<<10)); err == nil && json.Unmarshal(b, &payload) == nil {
		ae.Msg = payload.Error
		ae.Accepted = payload.Accepted
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			ae.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return ae
}

// backoff computes the delay before retry number attempt: base·2ᵃᵗᵗ
// capped at backoffCap, half fixed and half jitter so synchronized
// clients desynchronize.
func (c *Client) backoff(attempt int) time.Duration {
	d := c.backoffCap
	if attempt < 32 {
		if shifted := c.backoffBase << uint(attempt); shifted > 0 && shifted < d {
			d = shifted
		}
	}
	half := d / 2
	return half + time.Duration(c.rng.Int63n(int64(half)+1))
}

// sleepCtx is the production sleep: a timer racing the context.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Report is the subset of the daemon's GET /report body a streaming
// client acts on.
type Report struct {
	// Len is the stream length the report answered for.
	Len uint64
	// Eps and Phi are the engine's effective problem parameters.
	Eps, Phi float64
	// HeavyHitters holds the reported items with their estimates.
	HeavyHitters []ReportedItem
}

// ReportedItem is one heavy hitter in a Report.
type ReportedItem struct {
	// Item is the reported element.
	Item uint64
	// Estimate is the engine's frequency estimate for Item.
	Estimate float64
}

// Report fetches the daemon's current heavy-hitter report. It is a
// plain request-response call, independent of the ingest queue.
func (c *Client) Report(ctx context.Context) (*Report, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.baseURL+c.pathPrefix+"/report", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return nil, &APIError{Status: resp.StatusCode, Msg: strings.TrimSpace(string(b))}
	}
	var body struct {
		Len          uint64  `json:"len"`
		Eps          float64 `json:"eps"`
		Phi          float64 `json:"phi"`
		HeavyHitters []struct {
			Item     uint64  `json:"item"`
			Estimate float64 `json:"estimate"`
		} `json:"heavy_hitters"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&body); err != nil {
		return nil, fmt.Errorf("hhclient: decoding report: %w", err)
	}
	rep := &Report{Len: body.Len, Eps: body.Eps, Phi: body.Phi,
		HeavyHitters: make([]ReportedItem, len(body.HeavyHitters))}
	for i, h := range body.HeavyHitters {
		rep.HeavyHitters[i] = ReportedItem{Item: h.Item, Estimate: h.Estimate}
	}
	return rep, nil
}
