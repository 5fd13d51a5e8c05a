package main

// shed_test.go — /ingest load shedding: a saturated engine answers 429
// with Retry-After and an "accepted" count inside the bounded wait,
// /ingest and /vote bodies over -max-ingest-bytes answer 413, and
// -shed-wait 0 keeps the legacy blocking path.

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	l1hh "repro"
)

// shedEngine is a scripted l1hh engine for handler tests: it implements
// the Shedder capability and saturates after acceptChunks successful
// InsertBatchBounded calls.
type shedEngine struct {
	acceptChunks int
	bounded      int // InsertBatchBounded calls seen
	plain        int // InsertBatch calls seen
	items        uint64
}

func (e *shedEngine) Insert(x l1hh.Item) error { e.items++; return nil }
func (e *shedEngine) InsertBatch(items []l1hh.Item) error {
	e.plain++
	e.items += uint64(len(items))
	return nil
}
func (e *shedEngine) InsertBatchBounded(items []l1hh.Item, wait time.Duration) error {
	e.bounded++
	if e.bounded > e.acceptChunks {
		return l1hh.ErrSaturated
	}
	e.items += uint64(len(items))
	return nil
}
func (e *shedEngine) Report() []l1hh.ItemEstimate    { return nil }
func (e *shedEngine) Len() uint64                    { return e.items }
func (e *shedEngine) Eps() float64                   { return 0.02 }
func (e *shedEngine) Phi() float64                   { return 0.05 }
func (e *shedEngine) Stats() l1hh.Stats              { return l1hh.Stats{Items: e.items, Len: e.items, Shards: 1} }
func (e *shedEngine) ModelBits() int64               { return 1 }
func (e *shedEngine) MarshalBinary() ([]byte, error) { return nil, nil }
func (e *shedEngine) Close() error                   { return nil }

// newShedServer builds a server around a scripted engine with shedding
// enabled.
func newShedServer(t *testing.T, eng l1hh.HeavyHitters, shedWait time.Duration, maxBody int64) *server {
	t.Helper()
	s := newShell(testSpec(1000, 7))
	s.finish(eng)
	s.shedWait = shedWait
	s.maxIngestBytes = maxBody
	return s
}

func TestIngestShedsWith429(t *testing.T) {
	eng := &shedEngine{acceptChunks: 0}
	s := newShedServer(t, eng, 50*time.Millisecond, 0)

	done := make(chan struct{})
	var code int
	var hdr http.Header
	var body []byte
	go func() {
		defer close(done)
		w := do(t, s, "POST", "/ingest", "application/octet-stream", binaryBody([]uint64{1, 2, 3}))
		code, hdr, body = w.Code, w.Header(), w.Body.Bytes()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("/ingest hung on a saturated engine instead of shedding")
	}
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated ingest status = %d (%s), want 429", code, body)
	}
	if ra := hdr.Get("Retry-After"); ra == "" {
		t.Fatal("429 shed response carries no Retry-After header")
	}
	var resp struct {
		Error    string `json:"error"`
		Accepted uint64 `json:"accepted"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("shed body %q: %v", body, err)
	}
	if resp.Error == "" || resp.Accepted != 0 {
		t.Fatalf("shed body = %+v, want an error and accepted 0", resp)
	}
	if s.obs.shed.Value() != 1 {
		t.Fatalf("shedTotal = %d, want 1", s.obs.shed.Value())
	}
	if eng.plain != 0 {
		t.Fatal("with -shed-wait > 0 the handler must use the bounded insert path")
	}
}

func TestIngestShedReportsAcceptedPrefix(t *testing.T) {
	// First chunk (ingestBatchSize items) lands, second saturates: the
	// 429 body must name the applied prefix so a client resends only
	// the rest.
	eng := &shedEngine{acceptChunks: 1}
	s := newShedServer(t, eng, 10*time.Millisecond, 0)
	items := make([]uint64, ingestBatchSize+5)
	w := do(t, s, "POST", "/ingest", "application/octet-stream", binaryBody(items))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", w.Code)
	}
	var resp struct {
		Accepted uint64 `json:"accepted"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != ingestBatchSize {
		t.Fatalf("accepted = %d, want the applied first chunk of %d", resp.Accepted, ingestBatchSize)
	}
}

func TestIngestShedZeroWaitKeepsLegacyBlockingPath(t *testing.T) {
	eng := &shedEngine{}
	s := newShedServer(t, eng, 0, 0)
	w := do(t, s, "POST", "/ingest", "application/octet-stream", binaryBody([]uint64{1, 2, 3}))
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body)
	}
	if eng.plain != 1 || eng.bounded != 0 {
		t.Fatalf("with -shed-wait 0 the handler used bounded=%d plain=%d, want the plain path", eng.bounded, eng.plain)
	}
}

func TestIngestBodyLimitAnswers413(t *testing.T) {
	eng := &shedEngine{acceptChunks: 1 << 30}
	s := newShedServer(t, eng, 0, 64) // 64-byte cap = 8 items
	w := do(t, s, "POST", "/ingest", "application/octet-stream", binaryBody(make([]uint64, 100)))
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized ingest status = %d (%s), want 413", w.Code, w.Body)
	}
	// Within the limit passes untouched.
	w = do(t, s, "POST", "/ingest", "application/octet-stream", binaryBody(make([]uint64, 8)))
	if w.Code != http.StatusOK {
		t.Fatalf("in-limit ingest status = %d (%s), want 200", w.Code, w.Body)
	}
}

// TestNDJSONCutTailIsNotALine: an NDJSON body cut mid-line by
// -max-ingest-bytes answers 413 without inserting the fragment. Here the
// fragment "12345" of the line "123456789" would complete the first
// 8192-item batch: inserted, it would move a different item into the
// acknowledged prefix than the one the client sent.
func TestNDJSONCutTailIsNotALine(t *testing.T) {
	s := newTestServer(t, 100_000)
	body := strings.Repeat("7\n", ingestBatchSize-1) + "123456789\n"
	s.maxIngestBytes = int64(2*(ingestBatchSize-1) + len("12345"))
	w := do(t, s, "POST", "/ingest", "application/x-ndjson", []byte(body))
	if w.Code != http.StatusRequestEntityTooLarge || !strings.Contains(w.Body.String(), "after 0 items") {
		t.Fatalf("cut body: status %d (%s), want 413 after 0 items", w.Code, w.Body)
	}
	if got := s.engine().Len(); got != 0 {
		t.Fatalf("engine Len = %d, want 0: the cut tail was inserted", got)
	}
}

// TestVoteBodyLimitAnswers413: /vote applies -max-ingest-bytes like
// /ingest — 413 with the counted prefix, never a parse error on the cut
// tail — and a last ballot without a newline still counts at a clean
// EOF.
func TestVoteBodyLimitAnswers413(t *testing.T) {
	s := newProblemServer(t, l1hh.BordaProblem)
	s.maxIngestBytes = 25
	w := do(t, s, "POST", "/vote", "", []byte(strings.Repeat("[1,0,2,3]\n", 3)))
	if w.Code != http.StatusRequestEntityTooLarge || !strings.Contains(w.Body.String(), "after 2 ballots") {
		t.Fatalf("oversized vote: status %d (%s), want 413 after 2 ballots", w.Code, w.Body)
	}
	w = do(t, s, "POST", "/vote", "", []byte("[1,0,2,3]\n[1,0,2,3]"))
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"accepted":2`) {
		t.Fatalf("unterminated last ballot: status %d (%s), want 200 with 2 accepted", w.Code, w.Body)
	}
}

// TestIngestShedsOnRealSaturatedEngine is the end-to-end regression: a
// real 1-shard, depth-2 engine with its queues full answers 429 within
// the bounded wait instead of hanging the request.
func TestIngestShedsOnRealSaturatedEngine(t *testing.T) {
	spec := engineSpec{build: []l1hh.Option{
		l1hh.WithEps(0.02), l1hh.WithPhi(0.05), l1hh.WithStreamLength(1 << 20),
		l1hh.WithShards(1), l1hh.WithQueueDepth(2), l1hh.WithMaxBatch(4),
	}}
	s, err := newServer(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.engine().Close() })
	s.shedWait = 20 * time.Millisecond

	// Hammer ingest with concurrent bursts: one worker drains a depth-2
	// queue while 8 producers send at once, so the queue stays full and
	// some request must exhaust its wait budget and shed. Which request
	// sheds is scheduling-dependent; that none may hang is not.
	const burst = 8
	body := binaryBody(make([]uint64, 4096))
	deadline := time.Now().Add(30 * time.Second)
	for s.obs.shed.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("never shed a request against a depth-2 single-shard engine")
		}
		done := make(chan int, burst)
		for i := 0; i < burst; i++ {
			go func() {
				w := do(t, s, "POST", "/ingest", "application/octet-stream", body)
				done <- w.Code
			}()
		}
		for i := 0; i < burst; i++ {
			select {
			case code := <-done:
				if code != http.StatusOK && code != http.StatusTooManyRequests {
					t.Fatalf("ingest status = %d, want 200 or 429", code)
				}
			case <-time.After(25 * time.Second):
				t.Fatal("an ingest request hung past the bounded wait")
			}
		}
	}
}
