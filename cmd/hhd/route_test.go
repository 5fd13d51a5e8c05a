package main

// route_test.go — the request path shared by the root routes and the
// /t/{tenant} family: both prefixes answer every engine endpoint with
// the same status and the same JSON shape, and a /restore between two
// batches of one ingest body waits for the in-flight batch instead of
// closing the engine under it.

import (
	"bytes"
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	l1hh "repro"
)

// newParityServer serves spec at the root and, through a pool whose
// tenants are built from tenantOpts, under /t/{tenant}.
func newParityServer(t *testing.T, spec engineSpec, tenantOpts []l1hh.Option) *server {
	t.Helper()
	s, err := newServer(spec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := l1hh.NewPool(l1hh.WithTenantDefaults(tenantOpts...),
		l1hh.WithPoolObserver(s.obs.poolTimings()))
	if err != nil {
		t.Fatal(err)
	}
	s.enablePool(p)
	t.Cleanup(func() {
		p.Close()
		s.engine().Close()
	})
	return s
}

// jsonFields returns the sorted top-level keys of a JSON object body.
func jsonFields(t *testing.T, w *httptest.ResponseRecorder) []string {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &obj); err != nil {
		t.Fatalf("body is not a JSON object: %v\n%s", err, w.Body)
	}
	return slices.Sorted(maps.Keys(obj))
}

// TestRouteParity drives the eight engine endpoints at / and at
// /t/{tenant}/ on a heavy hitters engine with known m, a Borda engine
// and a min-frequency engine: every call must answer the same status
// under both prefixes, and the same JSON field set on a 200.
func TestRouteParity(t *testing.T) {
	borda := problemSpecFor(l1hh.BordaProblem, 10_000)
	minfreq := problemSpecFor(l1hh.MinFrequencyProblem, 10_000)
	kinds := []struct {
		name       string
		spec       engineSpec
		tenantOpts []l1hh.Option
	}{
		// Tenant engines are single-owner: the tenant defaults are
		// testSpec's options without the shard count, as
		// tenantDefaultsFromFlags builds them.
		{"hh", testSpec(10_000, 7), []l1hh.Option{
			l1hh.WithEps(0.02), l1hh.WithPhi(0.05), l1hh.WithDelta(0.05),
			l1hh.WithUniverse(1 << 32), l1hh.WithSeed(7), l1hh.WithStreamLength(10_000),
		}},
		{"borda", borda, borda.build},
		{"minfreq", minfreq, minfreq.build},
	}
	items := make([]uint64, 3000)
	for i := range items {
		items[i] = uint64(i % 32)
		if i%3 == 0 {
			items[i] = 9
		}
	}
	calls := []struct {
		method, path, ct string
		body             []byte
	}{
		// Mutations first: each creates the tenant (a failed insert is
		// still a touch), so the reads below find it.
		{"POST", "ingest", "application/octet-stream", binaryBody(items)},
		{"POST", "vote", "application/x-ndjson", []byte(strings.Repeat("[2,0,1,3]\n", 10))},
		{"GET", "report", "", nil},
		{"POST", "checkpoint", "", nil},
		{"GET", "stats", "", nil},
		{"GET", "winner", "", nil},
		{"GET", "extremes", "", nil},
		{"GET", "point?item=9", "", nil},
		{"GET", "point", "", nil},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			s := newParityServer(t, k.spec, k.tenantOpts)
			for _, c := range calls {
				root := do(t, s, c.method, "/"+c.path, c.ct, c.body)
				tenant := do(t, s, c.method, "/t/acme/"+c.path, c.ct, c.body)
				if root.Code != tenant.Code {
					t.Errorf("%s /%s: root %d (%s), tenant %d (%s)",
						c.method, c.path, root.Code, root.Body, tenant.Code, tenant.Body)
					continue
				}
				if root.Code != http.StatusOK || !strings.HasPrefix(root.Header().Get("Content-Type"), "application/json") {
					continue
				}
				if rf, tf := jsonFields(t, root), jsonFields(t, tenant); !slices.Equal(rf, tf) {
					t.Errorf("%s /%s: root fields %v, tenant fields %v", c.method, c.path, rf, tf)
				}
			}
		})
	}
}

// TestRestoreDuringIngest posts /restore between the two batches of
// one /ingest body: the restore waits for the in-flight batch, the
// request answers 200 for every item, and the second batch lands in
// the restored engine.
func TestRestoreDuringIngest(t *testing.T) {
	s := newTestServer(t, 100_000)
	if w := do(t, s, "POST", "/ingest", "application/octet-stream", binaryBody(make([]uint64, 100))); w.Code != http.StatusOK {
		t.Fatalf("seed ingest: %d: %s", w.Code, w.Body)
	}
	snap := do(t, s, "POST", "/checkpoint", "", nil)
	if snap.Code != http.StatusOK {
		t.Fatalf("checkpoint: %d: %s", snap.Code, snap.Body)
	}

	first := make([]uint64, ingestBatchSize)
	second := make([]uint64, 1000)
	for i := range first {
		first[i] = uint64(i)
	}
	for i := range second {
		second[i] = uint64(1 << 20)
	}
	pr, pw := io.Pipe()
	req := httptest.NewRequest("POST", "/ingest", pr)
	req.Header.Set("Content-Type", "application/octet-stream")
	w := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.ServeHTTP(w, req)
	}()
	// The handler reads the first batch whole, inserts it, then reads
	// again: once the first word of the second batch is consumed, the
	// first batch has been inserted and the handler holds no engine.
	body := binaryBody(second)
	if _, err := pw.Write(binaryBody(first)); err != nil {
		t.Fatal(err)
	}
	if _, err := pw.Write(body[:8]); err != nil {
		t.Fatal(err)
	}
	if r := do(t, s, "POST", "/restore", "application/octet-stream", snap.Body.Bytes()); r.Code != http.StatusOK {
		t.Fatalf("restore: %d: %s", r.Code, r.Body)
	}
	if _, err := io.Copy(pw, bytes.NewReader(body[8:])); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	<-done

	if w.Code != http.StatusOK {
		t.Fatalf("ingest across a restore: %d: %s", w.Code, w.Body)
	}
	var resp map[string]uint64
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp["accepted"] != ingestBatchSize+1000 {
		t.Fatalf("ingest response %s (err %v), want %d accepted", w.Body, err, ingestBatchSize+1000)
	}
	if got := s.engine().Len(); got != 100+1000 {
		t.Fatalf("restored engine Len = %d, want the snapshot's 100 plus the second batch's 1000", got)
	}
}
