package hhclient

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// step scripts one RoundTrip of the fault-injection transport.
type step struct {
	status     int           // HTTP status to return (0 means 200)
	body       string        // response body (JSON)
	retryAfter string        // Retry-After header value
	err        error         // transport-level error instead of a response
	started    chan struct{} // closed when the step is reached
	release    chan struct{} // when non-nil, RoundTrip blocks until closed
}

// faultTransport is a scripted http.RoundTripper: each request consumes
// the next step (default: 200 OK) and is recorded — decoded items for
// /ingest — so tests can pin exactly what was sent and resent.
type faultTransport struct {
	mu       sync.Mutex
	steps    []step
	requests [][]uint64
	paths    []string // EscapedPath of each request, in order
}

func (f *faultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var items []uint64
	if req.Body != nil {
		b, err := io.ReadAll(req.Body)
		if err != nil {
			return nil, err
		}
		for len(b) >= 8 {
			items = append(items, binary.LittleEndian.Uint64(b))
			b = b[8:]
		}
	}
	f.mu.Lock()
	f.requests = append(f.requests, items)
	f.paths = append(f.paths, req.URL.EscapedPath())
	var st step
	if len(f.steps) > 0 {
		st = f.steps[0]
		f.steps = f.steps[1:]
	}
	f.mu.Unlock()
	if st.started != nil {
		close(st.started)
	}
	if st.release != nil {
		<-st.release
	}
	if st.err != nil {
		return nil, st.err
	}
	if st.status == 0 {
		st.status = http.StatusOK
	}
	hdr := http.Header{}
	if st.retryAfter != "" {
		hdr.Set("Retry-After", st.retryAfter)
	}
	return &http.Response{
		StatusCode: st.status,
		Header:     hdr,
		Body:       io.NopCloser(strings.NewReader(st.body)),
	}, nil
}

func (f *faultTransport) sent() [][]uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([][]uint64(nil), f.requests...)
}

func (f *faultTransport) seenPaths() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.paths...)
}

// newTestClient builds a client over a fault transport with an injected
// sleep that records requested delays instead of waiting.
func newTestClient(t *testing.T, ft *faultTransport, opts ...Option) (*Client, *[]time.Duration) {
	t.Helper()
	opts = append([]Option{
		WithHTTPClient(&http.Client{Transport: ft}),
		WithBatchSize(1 << 20), // tests flush explicitly unless they say otherwise
		WithFlushInterval(time.Hour),
		WithSeed(7),
	}, opts...)
	c, err := New("http://hhd.test", opts...)
	if err != nil {
		t.Fatal(err)
	}
	sleeps := new([]time.Duration)
	// The worker is the only sleeper, and Flush's ack channel orders its
	// writes before the test's reads — no lock needed.
	c.sleep = func(ctx context.Context, d time.Duration) error {
		*sleeps = append(*sleeps, d)
		return ctx.Err()
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		c.Close(ctx)
	})
	return c, sleeps
}

func addAll(t *testing.T, c *Client, items []uint64) {
	t.Helper()
	for _, it := range items {
		if err := c.Add(it); err != nil {
			t.Fatalf("Add(%d): %v", it, err)
		}
	}
}

func flush(t *testing.T, c *Client) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Flush(ctx); err != nil {
		t.Fatalf("Flush: %v", err)
	}
}

func TestSendHappyPath(t *testing.T) {
	ft := &faultTransport{}
	c, sleeps := newTestClient(t, ft)
	items := []uint64{1, 2, 3, 42}
	addAll(t, c, items)
	flush(t, c)
	st := c.Stats()
	if st.Acked != 4 || st.Dropped != 0 || st.Retried != 0 || st.Queued != 0 {
		t.Fatalf("stats after clean flush: %+v", st)
	}
	reqs := ft.sent()
	if len(reqs) != 1 || len(reqs[0]) != 4 || reqs[0][3] != 42 {
		t.Fatalf("sent %v, want one batch of the 4 items", reqs)
	}
	if len(*sleeps) != 0 {
		t.Fatalf("slept %v on the happy path", *sleeps)
	}
}

func TestRetry5xxBurstWithBackoff(t *testing.T) {
	ft := &faultTransport{steps: []step{
		{status: 503}, {status: 502}, {status: 500}, {},
	}}
	base, cap := 10*time.Millisecond, 2*time.Second
	c, sleeps := newTestClient(t, ft, WithBackoff(base, cap))
	addAll(t, c, []uint64{9, 8, 7})
	flush(t, c)
	st := c.Stats()
	if st.Acked != 3 || st.Dropped != 0 {
		t.Fatalf("stats after 5xx burst: %+v", st)
	}
	if st.Retried != 3 || st.RetriedItems != 9 {
		t.Fatalf("retried %d attempts / %d items, want 3 / 9", st.Retried, st.RetriedItems)
	}
	if got := len(ft.sent()); got != 4 {
		t.Fatalf("server saw %d requests, want 4", got)
	}
	// Exponential schedule with jitter: attempt n sleeps in
	// [base·2ⁿ/2, base·2ⁿ].
	if len(*sleeps) != 3 {
		t.Fatalf("slept %d times, want 3", len(*sleeps))
	}
	for n, d := range *sleeps {
		full := base << uint(n)
		if d < full/2 || d > full {
			t.Fatalf("sleep %d = %v, want within [%v, %v]", n, d, full/2, full)
		}
	}
}

func TestShed429TrimsAckedPrefixAndHonorsRetryAfter(t *testing.T) {
	ft := &faultTransport{steps: []step{
		{status: 429, retryAfter: "3", body: `{"error":"saturated","accepted":2}`},
		{},
	}}
	c, sleeps := newTestClient(t, ft)
	items := []uint64{10, 11, 12, 13, 14}
	addAll(t, c, items)
	flush(t, c)
	st := c.Stats()
	if st.Acked != 5 || st.Dropped != 0 {
		t.Fatalf("stats after shed: %+v", st)
	}
	if st.RetriedItems != 3 {
		t.Fatalf("RetriedItems = %d, want 3 (the unacked suffix)", st.RetriedItems)
	}
	reqs := ft.sent()
	if len(reqs) != 2 {
		t.Fatalf("server saw %d requests, want 2", len(reqs))
	}
	if want := []uint64{12, 13, 14}; len(reqs[1]) != 3 || reqs[1][0] != want[0] {
		t.Fatalf("resend carried %v, want the unacked suffix %v", reqs[1], want)
	}
	if len(*sleeps) != 1 || (*sleeps)[0] != 3*time.Second {
		t.Fatalf("sleeps = %v, want exactly the server's Retry-After of 3s", *sleeps)
	}
}

func TestTerminalErrorDropsWithoutRetry(t *testing.T) {
	ft := &faultTransport{steps: []step{
		{status: 400, body: `{"error":"binary body length not a multiple of 8"}`},
	}}
	c, sleeps := newTestClient(t, ft)
	addAll(t, c, []uint64{1, 2})
	flush(t, c)
	st := c.Stats()
	if st.Dropped != 2 || st.Acked != 0 || st.Retried != 0 {
		t.Fatalf("stats after terminal 400: %+v", st)
	}
	if len(*sleeps) != 0 || len(ft.sent()) != 1 {
		t.Fatal("client retried a terminal 4xx")
	}
	var ae *APIError
	if err := c.LastError(); !errors.As(err, &ae) || ae.Status != 400 {
		t.Fatalf("LastError = %v, want *APIError with status 400", err)
	}
	if IsRetryable(c.LastError()) {
		t.Fatal("a 400 classified as retryable")
	}
}

func TestRetryBudgetExhaustedDrops(t *testing.T) {
	ft := &faultTransport{steps: []step{
		{status: 503}, {status: 503}, {status: 503},
	}}
	c, _ := newTestClient(t, ft, WithMaxRetries(2))
	addAll(t, c, []uint64{5})
	flush(t, c)
	st := c.Stats()
	if st.Dropped != 1 || st.Acked != 0 {
		t.Fatalf("stats after exhausted budget: %+v", st)
	}
	if st.Retried != 2 || len(ft.sent()) != 3 {
		t.Fatalf("retried %d times over %d requests, want 2 over 3", st.Retried, len(ft.sent()))
	}
	if !IsRetryable(c.LastError()) {
		t.Fatal("the final 503 should still classify as retryable")
	}
}

func TestTransportDropAndMidBodyResetRetry(t *testing.T) {
	ft := &faultTransport{steps: []step{
		{err: errors.New("connection refused")},        // dropped request
		{err: errors.New("connection reset mid-body")}, // torn mid-transfer
		{},
	}}
	c, _ := newTestClient(t, ft)
	addAll(t, c, []uint64{1, 2, 3})
	flush(t, c)
	st := c.Stats()
	if st.Acked != 3 || st.Dropped != 0 || st.Retried != 2 {
		t.Fatalf("stats after transport faults: %+v", st)
	}
	if len(ft.sent()) != 3 {
		t.Fatalf("server saw %d requests, want 3", len(ft.sent()))
	}
}

func TestQueueBoundAndPartialAddBatch(t *testing.T) {
	// Park the worker inside a blocked request so the queue fills
	// deterministically behind it.
	started := make(chan struct{})
	release := make(chan struct{})
	ft := &faultTransport{steps: []step{{started: started, release: release}}}
	c, _ := newTestClient(t, ft, WithQueueSize(4), WithBatchSize(1))
	defer close(release)
	if err := c.Add(100); err != nil {
		t.Fatal(err)
	}
	<-started // worker now owns item 100 and is stuck in RoundTrip
	addAll(t, c, []uint64{1, 2, 3, 4})
	if err := c.Add(5); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Add past capacity = %v, want ErrQueueFull", err)
	}
	// AddBatch takes nothing and reports the bound the same way.
	if n, err := c.AddBatch([]uint64{6, 7}); n != 0 || !errors.Is(err, ErrQueueFull) {
		t.Fatalf("AddBatch on full queue = (%d, %v)", n, err)
	}
	if st := c.Stats(); st.Enqueued != 5 || st.Queued != 5 {
		t.Fatalf("stats with full queue: %+v", st)
	}
}

// TestConcurrentProducersKeepOrderAcrossRingWraps: four producers whose
// chunk sizes wrap the ring at different offsets. Each producer's items
// arrive once each and in order, and no POST exceeds the batch size.
func TestConcurrentProducersKeepOrderAcrossRingWraps(t *testing.T) {
	const (
		perProducer = 5000
		batch       = 32
	)
	ft := &faultTransport{}
	c, _ := newTestClient(t, ft, WithQueueSize(100), WithBatchSize(batch))
	chunks := []int{7, 13, 29, 61}
	var wg sync.WaitGroup
	for p, chunk := range chunks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			items := make([]uint64, perProducer)
			for i := range items {
				items[i] = uint64(p)<<32 | uint64(i)
			}
			for len(items) > 0 {
				n, err := c.AddBatch(items[:min(chunk, len(items))])
				if err != nil && !errors.Is(err, ErrQueueFull) {
					t.Errorf("producer %d: AddBatch: %v", p, err)
					return
				}
				items = items[n:]
				if err != nil {
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()
	flush(t, c)
	next := make([]uint64, len(chunks))
	for _, req := range ft.sent() {
		if len(req) > batch {
			t.Fatalf("a POST carried %d items past the batch size of %d", len(req), batch)
		}
		for _, it := range req {
			p, seq := it>>32, it&(1<<32-1)
			if p >= uint64(len(chunks)) || seq != next[p] {
				t.Fatalf("producer %d: got item %d, want %d next", p, seq, next[p])
			}
			next[p]++
		}
	}
	for p, n := range next {
		if n != perProducer {
			t.Fatalf("producer %d: %d of %d items arrived", p, n, perProducer)
		}
	}
	st := c.Stats()
	if total := uint64(len(chunks) * perProducer); st.Enqueued != total || st.Acked != total || st.Queued != 0 || st.Dropped != 0 {
		t.Fatalf("stats after concurrent producers: %+v", st)
	}
}

// TestQueueFullRingSendsWithoutAgeFlush: with a batch larger than the
// queue, a full queue is a full batch and goes out at once, not after
// the (hour-long) flush interval.
func TestQueueFullRingSendsWithoutAgeFlush(t *testing.T) {
	ft := &faultTransport{}
	c, _ := newTestClient(t, ft, WithBatchSize(64), WithQueueSize(16))
	items := make([]uint64, 16)
	for i := range items {
		items[i] = uint64(i)
	}
	if n, err := c.AddBatch(items[:15]); n != 15 || err != nil {
		t.Fatalf("AddBatch = (%d, %v)", n, err)
	}
	if err := c.Add(items[15]); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Acked < 16 {
		if time.Now().After(deadline) {
			t.Fatal("a full queue was never sent")
		}
		time.Sleep(time.Millisecond)
	}
	if reqs := ft.sent(); len(reqs) != 1 || len(reqs[0]) != 16 || reqs[0][15] != 15 {
		t.Fatalf("sent %v, want the 16 queued items in one POST", reqs)
	}
}

// slowTransport delays every request, so that a producer refills the
// queue while a batch is in flight.
type slowTransport struct {
	http.RoundTripper
	delay time.Duration
}

func (s slowTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	time.Sleep(s.delay)
	return s.RoundTripper.RoundTrip(req)
}

// TestFlushWithConcurrentProducer: a producer that keeps the queue above
// a batch does not hold up a Flush barrier from another goroutine.
func TestFlushWithConcurrentProducer(t *testing.T) {
	ft := &faultTransport{}
	c, _ := newTestClient(t, ft, WithQueueSize(256), WithBatchSize(16),
		WithHTTPClient(&http.Client{Transport: slowTransport{ft, 100 * time.Microsecond}}))
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		chunk := make([]uint64, 16)
		for {
			select {
			case <-stop:
				return
			default:
				c.AddBatch(chunk)
			}
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()
	for range 5 {
		flush(t, c)
	}
}

// TestCloseRacingAddBatchStrandsNothing: producers keep calling AddBatch
// while Close runs. Once Close returns, nothing is left queued, every
// enqueued item was delivered, and no later call enqueues.
func TestCloseRacingAddBatchStrandsNothing(t *testing.T) {
	ft := &faultTransport{}
	c, _ := newTestClient(t, ft, WithQueueSize(64), WithBatchSize(8))
	var wg sync.WaitGroup
	running := make(chan struct{}, 4)
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			chunk := []uint64{1, 2, 3, 4, 5}
			for first := true; ; first = false {
				if _, err := c.AddBatch(chunk); errors.Is(err, ErrClosed) {
					return
				}
				if first {
					running <- struct{}{}
				}
			}
		}()
	}
	for range 4 {
		<-running
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := c.Stats()
	if st.Queued != 0 || st.Enqueued != st.Acked+st.Dropped || st.Dropped != 0 {
		t.Fatalf("stats once Close returned: %+v", st)
	}
	wg.Wait()
	if after := c.Stats(); after != st {
		t.Fatalf("stats moved after Close returned: %+v, then %+v", st, after)
	}
}

func TestCloseFlushesAndRejectsLaterAdds(t *testing.T) {
	ft := &faultTransport{}
	c, _ := newTestClient(t, ft)
	addAll(t, c, []uint64{1, 2, 3})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	st := c.Stats()
	if st.Acked != 3 || st.Queued != 0 {
		t.Fatalf("stats after Close: %+v", st)
	}
	if err := c.Add(9); !errors.Is(err, ErrClosed) {
		t.Fatalf("Add after Close = %v, want ErrClosed", err)
	}
	if _, err := c.AddBatch([]uint64{9}); !errors.Is(err, ErrClosed) {
		t.Fatalf("AddBatch after Close = %v, want ErrClosed", err)
	}
	if err := c.Flush(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("Flush after Close = %v, want ErrClosed", err)
	}
	if err := c.Close(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
}

func TestSizeFlushWithoutExplicitFlush(t *testing.T) {
	ft := &faultTransport{}
	c, _ := newTestClient(t, ft, WithBatchSize(2))
	addAll(t, c, []uint64{1, 2, 3, 4})
	flush(t, c) // barrier only; size flushes should have split the batches
	reqs := ft.sent()
	if len(reqs) < 2 {
		t.Fatalf("server saw %d requests, want ≥ 2 size-triggered batches", len(reqs))
	}
	for _, r := range reqs {
		if len(r) > 2 {
			t.Fatalf("a batch carried %d items past the batch size of 2", len(r))
		}
	}
	if st := c.Stats(); st.Acked != 4 {
		t.Fatalf("acked %d, want 4", st.Acked)
	}
}

func TestAgeFlush(t *testing.T) {
	ft := &faultTransport{}
	c, _ := newTestClient(t, ft, WithFlushInterval(5*time.Millisecond))
	if err := c.Add(77); err != nil {
		t.Fatal(err)
	}
	// One item in a huge batch: only the age timer can flush it.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Acked == 0 {
		if time.Now().After(deadline) {
			t.Fatal("age-based flush never fired")
		}
		time.Sleep(time.Millisecond)
	}
	if reqs := ft.sent(); len(reqs) != 1 || len(reqs[0]) != 1 || reqs[0][0] != 77 {
		t.Fatalf("age flush sent %v, want the single item 77", reqs)
	}
}

// TestWithTenantRoutes pins the multi-tenant path rewriting: ingest and
// Report both ride the /t/{tenant} family, with the name URL-escaped
// exactly once.
func TestWithTenantRoutes(t *testing.T) {
	ft := &faultTransport{steps: []step{
		{}, // ingest flush
		{body: `{"len":1,"eps":0.1,"phi":0.3,"heavy_hitters":[{"item":5,"estimate":1}]}`},
	}}
	c, _ := newTestClient(t, ft, WithTenant("team a/7"))
	addAll(t, c, []uint64{5})
	flush(t, c)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rep, err := c.Report(ctx)
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	if len(rep.HeavyHitters) != 1 || rep.HeavyHitters[0].Item != 5 {
		t.Fatalf("report = %+v", rep)
	}
	want := []string{"/t/team%20a%2F7/ingest", "/t/team%20a%2F7/report"}
	got := ft.seenPaths()
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("paths = %v, want %v", got, want)
	}
}

// TestWithTenantEmptyKeepsSingleRoutes: an empty tenant is a no-op, not
// a "/t//" prefix.
func TestWithTenantEmptyKeepsSingleRoutes(t *testing.T) {
	ft := &faultTransport{}
	c, _ := newTestClient(t, ft, WithTenant(""))
	addAll(t, c, []uint64{1})
	flush(t, c)
	if got := ft.seenPaths(); len(got) != 1 || got[0] != "/ingest" {
		t.Fatalf("paths = %v, want [/ingest]", got)
	}
}

func TestAPIErrorClassification(t *testing.T) {
	cases := []struct {
		status    int
		retryable bool
	}{
		{429, true}, {500, true}, {503, true}, {400, false}, {404, false}, {413, false},
	}
	for _, tc := range cases {
		ae := &APIError{Status: tc.status}
		if ae.Retryable() != tc.retryable {
			t.Errorf("status %d retryable = %v, want %v", tc.status, ae.Retryable(), tc.retryable)
		}
	}
	if !IsRetryable(errors.New("dial tcp: connection refused")) {
		t.Error("transport errors must classify as retryable")
	}
	if IsRetryable(nil) {
		t.Error("nil error classified as retryable")
	}
}
