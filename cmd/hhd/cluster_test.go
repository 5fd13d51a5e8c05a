package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	l1hh "repro"
	"repro/internal/exact"
)

// auditReport holds a /report body to the (ε,ϕ) contract against the
// exact counts of stream.
func auditReport(t *testing.T, rep reportResponse, stream []uint64, eps, phi float64) {
	t.Helper()
	ests := make([]exact.Estimate, len(rep.HeavyHitters))
	for i, h := range rep.HeavyHitters {
		ests[i] = exact.Estimate{Item: h.Item, F: h.Estimate}
	}
	if err := exact.Audit(exact.Count(stream), ests, eps, phi).Err(); err != nil {
		t.Error(err)
	}
}

// TestClusterMergeEndpoint is the two-node e2e: split a zipf stream
// across two in-process workers, aggregate their checkpoints via POST
// /merge on a third node, and require the global report to satisfy the
// serial (ε,ϕ) guarantees.
func TestClusterMergeEndpoint(t *testing.T) {
	const m = 100_000
	stream := l1hh.Generate(l1hh.NewZipfStream(55, 1<<20, 1.3), m)
	workerA := newTestServer(t, m)
	workerB := newTestServer(t, m)
	agg := newTestServer(t, m)

	if w := do(t, workerA, "POST", "/ingest", "application/octet-stream", binaryBody(stream[:m/2])); w.Code != http.StatusOK {
		t.Fatalf("worker A ingest: %d %s", w.Code, w.Body)
	}
	if w := do(t, workerB, "POST", "/ingest", "application/octet-stream", binaryBody(stream[m/2:])); w.Code != http.StatusOK {
		t.Fatalf("worker B ingest: %d %s", w.Code, w.Body)
	}
	for i, worker := range []*server{workerA, workerB} {
		cp := do(t, worker, "POST", "/checkpoint", "", nil)
		if cp.Code != http.StatusOK {
			t.Fatalf("worker %d checkpoint: %d %s", i, cp.Code, cp.Body)
		}
		mg := do(t, agg, "POST", "/merge", "application/octet-stream", cp.Body.Bytes())
		if mg.Code != http.StatusOK {
			t.Fatalf("merge of worker %d: %d %s", i, mg.Code, mg.Body)
		}
	}
	rep := decodeReport(t, do(t, agg, "GET", "/report", "", nil))
	if rep.Len != m {
		t.Fatalf("merged Len = %d, want %d", rep.Len, m)
	}
	auditReport(t, rep, stream, 0.02, 0.05)
}

// TestClusterMergeRejects: garbage gets 400, a configuration mismatch
// gets 409, and the engine keeps serving afterwards.
func TestClusterMergeRejects(t *testing.T) {
	const m = 50_000
	agg := newTestServer(t, m)
	do(t, agg, "POST", "/ingest", "application/x-ndjson", []byte("1\n2\n3\n"))

	if w := do(t, agg, "POST", "/merge", "application/octet-stream", []byte("garbage")); w.Code != http.StatusBadRequest {
		t.Fatalf("garbage merge: status %d, want 400", w.Code)
	}

	// A checkpoint from a differently-seeded node is decodable but
	// incompatible: 409 Conflict.
	mismatched, err := newServer(testSpec(m, 999))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mismatched.engine().Close() })
	cp := do(t, mismatched, "POST", "/checkpoint", "", nil)
	if cp.Code != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", cp.Code, cp.Body)
	}
	if w := do(t, agg, "POST", "/merge", "application/octet-stream", cp.Body.Bytes()); w.Code != http.StatusConflict {
		t.Fatalf("mismatched merge: status %d, want 409", w.Code)
	}
	if agg.obs.mergeErrors.Value() < 2 {
		t.Fatalf("merge error counter = %d, want ≥ 2", agg.obs.mergeErrors.Value())
	}

	// The engine is untouched and still serving.
	rep := decodeReport(t, do(t, agg, "GET", "/report", "", nil))
	if rep.Len != 3 {
		t.Fatalf("Len = %d after rejected merges, want 3", rep.Len)
	}
}

// TestMergeKindMismatch: /merge classifies a checkpoint by its container
// kind the same way on every engine. An empty body is a malformed
// checkpoint (400) — on a Borda daemon too, whose decoder used to panic
// on it — and a serial checkpoint offered to a sharded node is a kind
// mismatch (409), as a sharded checkpoint offered to a serial engine
// already was.
func TestMergeKindMismatch(t *testing.T) {
	borda := newProblemServer(t, l1hh.BordaProblem)
	if w := do(t, borda, "POST", "/merge", "application/octet-stream", nil); w.Code != http.StatusBadRequest {
		t.Fatalf("empty merge on a Borda daemon: status %d, want 400 (%s)", w.Code, w.Body)
	}

	const m = 50_000
	// hhd's heavy-hitters engines are always sharded, so the serial
	// checkpoint comes from a library engine with the same problem.
	serial, err := l1hh.New(l1hh.WithEps(0.02), l1hh.WithPhi(0.05), l1hh.WithDelta(0.05),
		l1hh.WithUniverse(1<<32), l1hh.WithSeed(7), l1hh.WithStreamLength(m))
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.InsertBatch([]uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	cp, err := serial.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sharded := newTestServer(t, m)
	if w := do(t, sharded, "POST", "/merge", "application/octet-stream", cp); w.Code != http.StatusConflict {
		t.Fatalf("serial checkpoint into a sharded node: status %d, want 409 (%s)", w.Code, w.Body)
	}
}

// TestUnknownLengthRefusesPointAndMerge: at the default -m 0 the daemon
// serves an unknown-length sharded engine, which can neither bound a
// per-item estimate nor fold a peer's checkpoint. /point answers 409
// rather than an estimate of 0 for an item /report lists, and /merge of
// a valid known-length checkpoint answers 409 rather than 400.
func TestUnknownLengthRefusesPointAndMerge(t *testing.T) {
	s := newTestServer(t, 0)
	items := make([]uint64, 20_000)
	for i := range items {
		items[i] = uint64(1000 + i)
		if i%2 == 0 {
			items[i] = 7
		}
	}
	if w := do(t, s, "POST", "/ingest", "application/octet-stream", binaryBody(items)); w.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", w.Code, w.Body)
	}
	if rep := decodeReport(t, do(t, s, "GET", "/report", "", nil)); len(rep.HeavyHitters) == 0 || rep.HeavyHitters[0].Item != 7 {
		t.Fatalf("report %+v does not lead with the planted item 7", rep.HeavyHitters)
	}
	if w := do(t, s, "GET", "/point?item=7", "", nil); w.Code != http.StatusConflict {
		t.Fatalf("point on an unknown-length engine: status %d, want 409 (%s)", w.Code, w.Body)
	}

	peer := newTestServer(t, 50_000)
	do(t, peer, "POST", "/ingest", "application/octet-stream", binaryBody(items[:100]))
	cp := do(t, peer, "POST", "/checkpoint", "", nil)
	if cp.Code != http.StatusOK {
		t.Fatalf("peer checkpoint status %d: %s", cp.Code, cp.Body)
	}
	if w := do(t, s, "POST", "/merge", "application/octet-stream", cp.Body.Bytes()); w.Code != http.StatusConflict {
		t.Fatalf("merge into an unknown-length engine: status %d, want 409 (%s)", w.Code, w.Body)
	}
}

// TestClusterAggregatorLoop drives the aggregator against two live
// worker HTTP servers while reports and metrics are scraped concurrently
// (run under -race in CI): the merged view must converge to the full
// stream with no data races.
func TestClusterAggregatorLoop(t *testing.T) {
	const m = 60_000
	stream := plantedStream(m)
	workerA := newTestServer(t, m)
	workerB := newTestServer(t, m)
	do(t, workerA, "POST", "/ingest", "application/octet-stream", binaryBody(stream[:m/2]))
	do(t, workerB, "POST", "/ingest", "application/octet-stream", binaryBody(stream[m/2:]))

	srvA := httptest.NewServer(workerA)
	defer srvA.Close()
	srvB := httptest.NewServer(workerB)
	defer srvB.Close()

	agg := newTestServer(t, m)
	agg.peers = []string{srvA.URL, srvB.URL}

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		agg.aggregate(ctx, 10*time.Millisecond)
	}()
	// Concurrent readers while the loop swaps engines.
	deadline := time.Now().Add(3 * time.Second)
	converged := false
	for time.Now().Before(deadline) {
		rep := decodeReport(t, do(t, agg, "GET", "/report", "", nil))
		do(t, agg, "GET", "/metrics", "", nil)
		if rep.Len == m {
			converged = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	cancel()
	wg.Wait()
	if !converged {
		t.Fatalf("aggregator never converged to Len=%d", m)
	}
	rep := decodeReport(t, do(t, agg, "GET", "/report", "", nil))
	auditReport(t, rep, stream, 0.02, 0.05)

	// Metrics reflect the merges.
	w := do(t, agg, "GET", "/metrics", "", nil)
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &vars); err != nil {
		t.Fatal(err)
	}
	var merges uint64
	if err := json.Unmarshal(vars["hhd_merges_total"], &merges); err != nil || merges == 0 {
		t.Fatalf("hhd_merges_total = %s (err %v), want > 0", vars["hhd_merges_total"], err)
	}
	var staleness float64
	if err := json.Unmarshal(vars["hhd_merge_staleness_seconds"], &staleness); err != nil || staleness < 0 {
		t.Fatalf("hhd_merge_staleness_seconds = %s (err %v), want ≥ 0", vars["hhd_merge_staleness_seconds"], err)
	}
	var npeers int
	if err := json.Unmarshal(vars["hhd_peers"], &npeers); err != nil || npeers != 2 {
		t.Fatalf("hhd_peers = %s (err %v), want 2", vars["hhd_peers"], err)
	}
}

// TestAggregatorRejectsMutation: a node in aggregator mode must refuse
// /ingest, /merge and /restore — its state is rebuilt from peers each
// cycle, so acknowledging local writes would silently drop them.
func TestAggregatorRejectsMutation(t *testing.T) {
	const m = 10_000
	agg := newTestServer(t, m)
	agg.peers = []string{"http://127.0.0.1:1"}

	if w := do(t, agg, "POST", "/ingest", "application/x-ndjson", []byte("1\n")); w.Code != http.StatusConflict {
		t.Errorf("aggregator /ingest: status %d, want 409", w.Code)
	}
	if w := do(t, agg, "POST", "/merge", "application/octet-stream", []byte("x")); w.Code != http.StatusConflict {
		t.Errorf("aggregator /merge: status %d, want 409", w.Code)
	}
	if w := do(t, agg, "POST", "/restore", "application/octet-stream", []byte("x")); w.Code != http.StatusConflict {
		t.Errorf("aggregator /restore: status %d, want 409", w.Code)
	}
	// Read endpoints stay live.
	if w := do(t, agg, "GET", "/report", "", nil); w.Code != http.StatusOK {
		t.Errorf("aggregator /report: status %d, want 200", w.Code)
	}
	if w := do(t, agg, "POST", "/checkpoint", "", nil); w.Code != http.StatusOK {
		t.Errorf("aggregator /checkpoint: status %d, want 200", w.Code)
	}
}

// TestClusterAggregatorPeerDown: a dead peer fails the cycle, the
// previous state keeps serving, and the error counter moves.
func TestClusterAggregatorPeerDown(t *testing.T) {
	const m = 30_000
	stream := plantedStream(m)
	worker := newTestServer(t, m)
	do(t, worker, "POST", "/ingest", "application/octet-stream", binaryBody(stream[:m/2]))
	srv := httptest.NewServer(worker)
	defer srv.Close()

	agg := newTestServer(t, m)
	agg.peers = []string{srv.URL}
	client := &http.Client{Timeout: time.Second}
	if err := agg.pullAndMerge(context.Background(), client); err != nil {
		t.Fatal(err)
	}
	if got := agg.engine().Len(); got != m/2 {
		t.Fatalf("after first pull Len = %d, want %d", got, m/2)
	}

	dead := httptest.NewServer(worker)
	dead.Close()
	agg.peers = []string{srv.URL, dead.URL}
	if err := agg.pullAndMerge(context.Background(), client); err == nil {
		t.Fatal("pull with a dead peer succeeded")
	}
	if got := agg.engine().Len(); got != m/2 {
		t.Fatalf("failed pull disturbed serving state: Len = %d, want %d", got, m/2)
	}
	if agg.obs.mergeErrors.Value() == 0 {
		t.Fatal("merge error counter did not move")
	}
}
