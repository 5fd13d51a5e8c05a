package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/iotest"

	l1hh "repro"
)

func testSpec(m, seed uint64) engineSpec {
	build := []l1hh.Option{
		l1hh.WithEps(0.02), l1hh.WithPhi(0.05), l1hh.WithDelta(0.05),
		l1hh.WithUniverse(1 << 32), l1hh.WithSeed(seed), l1hh.WithShards(4),
	}
	if m > 0 {
		build = append(build, l1hh.WithStreamLength(m))
	}
	return engineSpec{build: build, m: m}
}

func newTestServer(t *testing.T, m uint64) *server {
	t.Helper()
	s, err := newServer(testSpec(m, 7))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.engine().Close() })
	return s
}

func do(t *testing.T, s *server, method, path, contentType string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func binaryBody(items []uint64) []byte {
	out := make([]byte, 0, 8*len(items))
	for _, x := range items {
		out = binary.LittleEndian.AppendUint64(out, x)
	}
	return out
}

func decodeReport(t *testing.T, w *httptest.ResponseRecorder) reportResponse {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("report status %d: %s", w.Code, w.Body)
	}
	var rep reportResponse
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// plantedStream builds a stream whose ids 0..2 are planted heavy.
func plantedStream(m int) []uint64 {
	return l1hh.GeneratePlantedStream(99, m, []float64{0.2, 0.12, 0.06}, 100, 1<<30, l1hh.OrderShuffled)
}

func TestIngestBinaryAndReport(t *testing.T) {
	const m = 100_000
	s := newTestServer(t, m)
	stream := plantedStream(m)

	w := do(t, s, "POST", "/ingest", "application/octet-stream", binaryBody(stream))
	if w.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", w.Code, w.Body)
	}
	var resp map[string]uint64
	json.Unmarshal(w.Body.Bytes(), &resp)
	if resp["accepted"] != m {
		t.Fatalf("accepted = %d, want %d", resp["accepted"], m)
	}

	rep := decodeReport(t, do(t, s, "GET", "/report", "", nil))
	if rep.Len != m || rep.Shards != 4 || rep.ModelBits <= 0 {
		t.Fatalf("report metadata = %+v", rep)
	}
	found := map[uint64]bool{}
	for _, h := range rep.HeavyHitters {
		found[h.Item] = true
	}
	for _, want := range []uint64{0, 1, 2} {
		if !found[want] {
			t.Errorf("planted heavy item %d missing from report %v", want, rep.HeavyHitters)
		}
	}
}

func TestIngestNDJSON(t *testing.T) {
	s := newTestServer(t, 1000)
	body := strings.Join([]string{
		"17",
		`{"item": 17}`,
		`{"item": 42, "count": 5}`,
		`{"item": 3, "count": 0}`, // explicit zero count is a no-op
		"",                        // blank lines are skipped
		"17",
	}, "\n")
	w := do(t, s, "POST", "/ingest", "application/x-ndjson", []byte(body))
	if w.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", w.Code, w.Body)
	}
	var resp map[string]uint64
	json.Unmarshal(w.Body.Bytes(), &resp)
	if resp["accepted"] != 8 {
		t.Fatalf("accepted = %d, want 8", resp["accepted"])
	}
	if got := s.engine().Len(); got != 8 {
		t.Fatalf("engine Len = %d, want 8", got)
	}
}

func TestIngestErrors(t *testing.T) {
	s := newTestServer(t, 1000)
	if w := do(t, s, "POST", "/ingest", "application/octet-stream", []byte{1, 2, 3}); w.Code != http.StatusBadRequest {
		t.Errorf("short binary body: status %d, want 400", w.Code)
	}
	if w := do(t, s, "POST", "/ingest", "application/x-ndjson", []byte("not-a-number")); w.Code != http.StatusBadRequest {
		t.Errorf("bad ndjson line: status %d, want 400", w.Code)
	}
	if w := do(t, s, "POST", "/ingest", "application/x-protobuf", []byte("x")); w.Code != http.StatusUnsupportedMediaType {
		t.Errorf("unknown content type: status %d, want 415", w.Code)
	}
	huge := fmt.Sprintf(`{"item":1,"count":%d}`, uint64(1)<<40)
	if w := do(t, s, "POST", "/ingest", "application/x-ndjson", []byte(huge)); w.Code != http.StatusBadRequest {
		t.Errorf("absurd count: status %d, want 400", w.Code)
	}
	if w := do(t, s, "GET", "/ingest", "", nil); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /ingest: status %d, want 405", w.Code)
	}
}

// TestIngestBinaryTornTailPastOneChunk: a torn tail after a full
// InsertBatch chunk answers 400 naming only the applied chunk, and the
// whole items decoded after that chunk are not applied either.
func TestIngestBinaryTornTailPastOneChunk(t *testing.T) {
	s := newTestServer(t, 100_000)
	items := make([]uint64, ingestBatchSize+5)
	for i := range items {
		items[i] = uint64(i)
	}
	body := append(binaryBody(items), 1, 2, 3)
	w := do(t, s, "POST", "/ingest", "application/octet-stream", body)
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), fmt.Sprintf("after %d items", ingestBatchSize)) {
		t.Fatalf("torn tail: status %d (%s), want 400 after %d items", w.Code, w.Body, ingestBatchSize)
	}
	if got := s.engine().Len(); got != ingestBatchSize {
		t.Fatalf("engine Len = %d, want the one applied chunk of %d", got, ingestBatchSize)
	}
}

// TestIngestBinarySplitReads: words torn across reads of any size decode
// to the items sent, and a read error names only the applied chunks.
func TestIngestBinarySplitReads(t *testing.T) {
	items := make([]uint64, 2*ingestBatchSize+3)
	for i := range items {
		items[i] = uint64(i)*0x9E3779B97F4A7C15 + 1
	}
	body := binaryBody(items)
	for name, r := range map[string]io.Reader{
		"one byte": iotest.OneByteReader(bytes.NewReader(body)),
		"halves":   iotest.HalfReader(bytes.NewReader(body)),
		"data+EOF": iotest.DataErrReader(bytes.NewReader(body)),
	} {
		var got []uint64
		n, err := ingestBinary(func(b []l1hh.Item) error { got = append(got, b...); return nil }, r)
		if err != nil || n != uint64(len(items)) || !slices.Equal(got, items) {
			t.Fatalf("%s: accepted %d, err %v, items equal %v", name, n, err, slices.Equal(got, items))
		}
	}
	broken := errors.New("connection reset")
	r := io.MultiReader(bytes.NewReader(body[:8*ingestBatchSize+13]), iotest.ErrReader(broken))
	n, err := ingestBinary(func([]l1hh.Item) error { return nil }, r)
	if !errors.Is(err, broken) || n != ingestBatchSize {
		t.Fatalf("read error: accepted %d, err %v; want %d, %v", n, err, ingestBatchSize, broken)
	}
}

func TestCheckpointRestoreRoundTrip(t *testing.T) {
	const m = 60_000
	s := newTestServer(t, m)
	stream := plantedStream(m)
	do(t, s, "POST", "/ingest", "application/octet-stream", binaryBody(stream[:m/2]))

	w := do(t, s, "POST", "/checkpoint", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("checkpoint status %d: %s", w.Code, w.Body)
	}
	snapshot := append([]byte{}, w.Body.Bytes()...)

	// Second half, then capture the report.
	do(t, s, "POST", "/ingest", "application/octet-stream", binaryBody(stream[m/2:]))
	full := decodeReport(t, do(t, s, "GET", "/report", "", nil))

	// Roll back to the checkpoint: the report must reflect only half the
	// stream again.
	if w := do(t, s, "POST", "/restore", "application/octet-stream", snapshot); w.Code != http.StatusOK {
		t.Fatalf("restore status %d: %s", w.Code, w.Body)
	}
	half := decodeReport(t, do(t, s, "GET", "/report", "", nil))
	if half.Len != m/2 {
		t.Fatalf("after restore Len = %d, want %d", half.Len, m/2)
	}

	// Replay the second half: the report must match the uninterrupted run
	// exactly (determinism of the restored state).
	do(t, s, "POST", "/ingest", "application/octet-stream", binaryBody(stream[m/2:]))
	replay := decodeReport(t, do(t, s, "GET", "/report", "", nil))
	if fmt.Sprint(replay.HeavyHitters) != fmt.Sprint(full.HeavyHitters) {
		t.Fatalf("replayed report diverged:\n%v\n%v", replay.HeavyHitters, full.HeavyHitters)
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	s := newTestServer(t, 1000)
	if w := do(t, s, "POST", "/restore", "application/octet-stream", []byte("garbage")); w.Code != http.StatusBadRequest {
		t.Fatalf("garbage restore: status %d, want 400", w.Code)
	}
}

func TestUnknownLengthCheckpointConflict(t *testing.T) {
	s, err := newServer(testSpec(0, 7)) // unknown stream length
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.engine().Close() })
	if w := do(t, s, "POST", "/checkpoint", "", nil); w.Code != http.StatusConflict {
		t.Fatalf("unknown-length checkpoint: status %d, want 409", w.Code)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s := newTestServer(t, 10_000)
	do(t, s, "POST", "/ingest", "application/x-ndjson", []byte("1\n2\n3\n"))

	w := do(t, s, "GET", "/healthz", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("healthz status %d", w.Code)
	}
	var hz map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz["status"] != "ok" {
		t.Fatalf("healthz = %v", hz)
	}

	w = do(t, s, "GET", "/metrics", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("metrics status %d", w.Code)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &vars); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, w.Body)
	}
	var total uint64
	if err := json.Unmarshal(vars["hhd_items_total"], &total); err != nil || total != 3 {
		t.Fatalf("hhd_items_total = %s (err %v), want 3", vars["hhd_items_total"], err)
	}
	var depths map[string]int
	if err := json.Unmarshal(vars["hhd_queue_depth"], &depths); err != nil || len(depths) != 4 {
		t.Fatalf("hhd_queue_depth = %s (err %v), want 4 shards", vars["hhd_queue_depth"], err)
	}
	var bits int64
	if err := json.Unmarshal(vars["hhd_model_bits"], &bits); err != nil || bits <= 0 {
		t.Fatalf("hhd_model_bits = %s (err %v), want > 0", vars["hhd_model_bits"], err)
	}
}

// TestConcurrentIngestors hammers /ingest from several goroutines while
// reports run, verifying no items are lost (run with -race in CI).
func TestConcurrentIngestors(t *testing.T) {
	const producers, perProducer = 8, 5_000
	s := newTestServer(t, producers*perProducer)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			items := make([]uint64, perProducer)
			for i := range items {
				items[i] = uint64(p*perProducer + i)
			}
			w := do(t, s, "POST", "/ingest", "application/octet-stream", binaryBody(items))
			if w.Code != http.StatusOK {
				t.Errorf("ingest status %d: %s", w.Code, w.Body)
			}
		}(p)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			do(t, s, "GET", "/report", "", nil)
			do(t, s, "GET", "/metrics", "", nil)
		}
	}()
	wg.Wait()
	<-done
	if got := s.engine().Len(); got != producers*perProducer {
		t.Fatalf("Len = %d, want %d", got, producers*perProducer)
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	s := newTestServer(t, 50_000)
	stream := plantedStream(50_000)
	do(t, s, "POST", "/ingest", "application/octet-stream", binaryBody(stream))
	if err := s.shutdown(); err != nil {
		t.Fatal(err)
	}
	// Post-drain, the engine still answers reports inline and reflects
	// every accepted item.
	rep := decodeReport(t, do(t, s, "GET", "/report", "", nil))
	if rep.Len != 50_000 {
		t.Fatalf("post-shutdown Len = %d, want 50000", rep.Len)
	}
	// New ingest is refused.
	if w := do(t, s, "POST", "/ingest", "application/x-ndjson", []byte("1\n")); w.Code == http.StatusOK {
		t.Fatal("ingest accepted after shutdown")
	}
}

// TestValidateTenantFlags: under -tenants there is no default engine,
// so the flags that only configured its shard pipeline are refused at
// startup, by name; the problem flags pass.
func TestValidateTenantFlags(t *testing.T) {
	for _, name := range []string{"shards", "queue-depth", "max-batch"} {
		err := validateTenantFlags(map[string]bool{"tenants": true, "eps": true, name: true})
		if err == nil || !strings.Contains(err.Error(), "-"+name+" ") {
			t.Errorf("-tenants -%s: err = %v, want a refusal naming -%s", name, err, name)
		}
	}
	set := map[string]bool{"tenants": true, "eps": true, "phi": true, "m": true, "tenant-budget-bits": true}
	if err := validateTenantFlags(set); err != nil {
		t.Errorf("problem and pool flags refused: %v", err)
	}
}
