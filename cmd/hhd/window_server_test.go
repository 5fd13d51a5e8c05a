package main

// Tests for the daemon's sliding-window mode and the /report metadata
// (effective (ε,ϕ), answered stream length, window coverage, aggregator
// staleness) that lets clients detect stale or misconfigured reports.

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	l1hh "repro"
)

func windowSpec(window uint64) engineSpec {
	return engineSpec{build: []l1hh.Option{
		l1hh.WithEps(0.05), l1hh.WithPhi(0.2), l1hh.WithDelta(0.05),
		l1hh.WithUniverse(1 << 32), l1hh.WithAlgorithm(l1hh.AlgorithmSimple),
		l1hh.WithSeed(7), l1hh.WithShards(2),
		l1hh.WithCountWindow(window, 0),
	}}
}

func newWindowServer(t *testing.T, window uint64) *server {
	t.Helper()
	s, err := newServer(windowSpec(window))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.engine().Close() })
	return s
}

// TestReportMetadata: every /report carries the effective (ε,ϕ) and the
// answered stream length, so clients can validate thresholds even after
// a /restore swapped configurations.
func TestReportMetadata(t *testing.T) {
	s := newTestServer(t, 10_000)
	w := do(t, s, "POST", "/ingest", "application/octet-stream",
		binaryBody(plantedStream(10_000)))
	if w.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", w.Code, w.Body)
	}
	rep := decodeReport(t, do(t, s, "GET", "/report", "", nil))
	if rep.Eps != 0.02 || rep.Phi != 0.05 {
		t.Fatalf("report (eps,phi) = (%g,%g), want the engine's (0.02,0.05)", rep.Eps, rep.Phi)
	}
	if rep.Len != 10_000 {
		t.Fatalf("report len %d, want 10000", rep.Len)
	}
	if rep.Window != nil {
		t.Fatalf("unwindowed report carries window metadata: %+v", rep.Window)
	}
	if rep.MergedAgeSeconds != nil {
		t.Fatalf("worker report carries merged age: %v", *rep.MergedAgeSeconds)
	}
}

// TestWindowedDaemon: ingest two regimes through a windowed engine; the
// report must cover only the recent one and carry window metadata.
func TestWindowedDaemon(t *testing.T) {
	const window = 1_000
	s := newWindowServer(t, window)

	// Regime 1: id 1 heavy. Regime 2 (≥ W + slack newer items): id 2.
	// Background noise keeps every shard's substream flowing — count
	// windows slide on per-shard arrivals (DESIGN.md §8), so a shard
	// with no fresh traffic would never retire its old buckets.
	regime1 := l1hh.GeneratePlantedStream(41, 3_000,
		[]float64{0, 0.5}, 100, 1<<30, l1hh.OrderShuffled) // id 1 at 50%
	regime2 := l1hh.GeneratePlantedStream(43, 3_000,
		[]float64{0, 0, 0.5}, 100, 1<<30, l1hh.OrderShuffled) // id 2 at 50%
	for _, batch := range [][]uint64{regime1, regime2} {
		if w := do(t, s, "POST", "/ingest", "application/octet-stream", binaryBody(batch)); w.Code != http.StatusOK {
			t.Fatalf("ingest: %d %s", w.Code, w.Body)
		}
	}

	rep := decodeReport(t, do(t, s, "GET", "/report", "", nil))
	if rep.Window == nil {
		t.Fatal("windowed report lacks window metadata")
	}
	if rep.Window.Window != window || rep.Window.DurationSeconds != 0 {
		t.Fatalf("window geometry %+v, want count window %d", rep.Window, window)
	}
	if rep.Len != rep.Window.Covered {
		t.Fatalf("len %d must equal covered %d", rep.Len, rep.Window.Covered)
	}
	if rep.Window.Total != 6_000 {
		t.Fatalf("window total %d, want 6000", rep.Window.Total)
	}
	if rep.Window.Covered+rep.Window.Retired != rep.Window.Total {
		t.Fatalf("window accounting doesn't add up: %+v", rep.Window)
	}
	// The split geometry distinguishes a tag-5 window from a tag-4 one:
	// 2 shards of ⌈1000/2⌉ = 500 items each, extrapolated by default.
	if rep.Window.Shards != 2 || rep.Window.PerShardWindow != 500 {
		t.Fatalf("split geometry %d×%d, want 2×500", rep.Window.Shards, rep.Window.PerShardWindow)
	}
	if !rep.Window.Extrapolated {
		t.Fatal("sharded count-window report must advertise extrapolation")
	}
	if rep.Window.CoveredMin == 0 || rep.Window.CoveredMax < rep.Window.CoveredMin ||
		rep.Window.CoveredMin+rep.Window.CoveredMax != rep.Window.Covered {
		t.Fatalf("per-shard coverage bounds don't add up over 2 shards: %+v", rep.Window)
	}
	if rep.Window.ShareSkew < 1 {
		t.Fatalf("share skew %g < 1", rep.Window.ShareSkew)
	}
	// Only the recent regime: id 2 reported, id 1 fully aged out.
	var sawOld, sawNew bool
	for _, it := range rep.HeavyHitters {
		switch it.Item {
		case 1:
			sawOld = true
		case 2:
			sawNew = true
		}
	}
	if sawOld || !sawNew {
		t.Fatalf("window report sawOld=%v sawNew=%v: %+v", sawOld, sawNew, rep.HeavyHitters)
	}
}

// TestWindowedCheckpointRestore: windowed state round-trips through
// POST /checkpoint and POST /restore, window included.
func TestWindowedCheckpointRestore(t *testing.T) {
	s := newWindowServer(t, 500)
	stream := make([]uint64, 2_000)
	for i := range stream {
		stream[i] = uint64(i % 3)
	}
	if w := do(t, s, "POST", "/ingest", "application/octet-stream", binaryBody(stream)); w.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", w.Code, w.Body)
	}
	before := decodeReport(t, do(t, s, "GET", "/report", "", nil))

	cp := do(t, s, "POST", "/checkpoint", "", nil)
	if cp.Code != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", cp.Code, cp.Body)
	}
	if w := do(t, s, "POST", "/restore", "application/octet-stream", cp.Body.Bytes()); w.Code != http.StatusOK {
		t.Fatalf("restore: %d %s", w.Code, w.Body)
	}
	after := decodeReport(t, do(t, s, "GET", "/report", "", nil))
	if after.Window == nil || after.Window.Covered != before.Window.Covered {
		t.Fatalf("restore lost window state: before %+v after %+v", before.Window, after.Window)
	}
	if len(after.HeavyHitters) != len(before.HeavyHitters) {
		t.Fatalf("restore changed the report: %+v vs %+v", before.HeavyHitters, after.HeavyHitters)
	}
}

// TestWindowedMergeConflict: /merge on a windowed node answers 409 —
// windowed states are not mergeable.
func TestWindowedMergeConflict(t *testing.T) {
	a := newWindowServer(t, 500)
	b := newWindowServer(t, 500)
	if w := do(t, a, "POST", "/ingest", "application/octet-stream", binaryBody([]uint64{1, 2, 3})); w.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", w.Code, w.Body)
	}
	cp := do(t, a, "POST", "/checkpoint", "", nil)
	if cp.Code != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", cp.Code, cp.Body)
	}
	w := do(t, b, "POST", "/merge", "application/octet-stream", cp.Body.Bytes())
	if w.Code != http.StatusConflict {
		t.Fatalf("merge of windowed state: status %d (want 409): %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "not mergeable") {
		t.Fatalf("merge error should explain the window conflict: %s", w.Body)
	}
}

// TestWindowedMetrics: the hhd_window family's JSON view follows the
// live windowed engine.
func TestWindowedMetrics(t *testing.T) {
	s := newWindowServer(t, 500)
	stream := make([]uint64, 2_000)
	for i := range stream {
		stream[i] = uint64(i % 5)
	}
	if w := do(t, s, "POST", "/ingest", "application/octet-stream", binaryBody(stream)); w.Code != http.StatusOK {
		t.Fatalf("ingest: %d %s", w.Code, w.Body)
	}
	m := do(t, s, "GET", "/metrics", "", nil)
	if m.Code != http.StatusOK {
		t.Fatalf("metrics: %d", m.Code)
	}
	var vars struct {
		Window map[string]any `json:"hhd_window"`
	}
	if err := json.Unmarshal(m.Body.Bytes(), &vars); err != nil {
		t.Fatal(err)
	}
	if vars.Window == nil {
		t.Fatal("metrics lack hhd_window")
	}
	for _, key := range []string{
		"covered", "covered_min", "covered_max", "share_skew", "extrapolated",
		"retired_total", "buckets", "span_seconds",
	} {
		if _, ok := vars.Window[key]; !ok {
			t.Errorf("hhd_window lacks %s: %v", key, vars.Window)
		}
	}
	if covered, _ := vars.Window["covered"].(float64); covered == 0 {
		t.Errorf("hhd_window covered should be non-zero: %v", vars.Window)
	}
}

// TestAggregatorReportCarriesAge: an aggregator's /report includes
// merged_age_seconds (-1 before the first successful pull, then the
// age of the serving merged state).
func TestAggregatorReportCarriesAge(t *testing.T) {
	s := newTestServer(t, 10_000)
	s.peers = []string{"http://127.0.0.1:0"} // aggregator mode; no pull has run
	rep := decodeReport(t, do(t, s, "GET", "/report", "", nil))
	if rep.MergedAgeSeconds == nil {
		t.Fatal("aggregator report lacks merged_age_seconds")
	}
	if *rep.MergedAgeSeconds != -1 {
		t.Fatalf("age before any merge: %g, want -1", *rep.MergedAgeSeconds)
	}
	s.recordMerge(time.Millisecond)
	rep = decodeReport(t, do(t, s, "GET", "/report", "", nil))
	if rep.MergedAgeSeconds == nil || *rep.MergedAgeSeconds < 0 {
		t.Fatalf("age after a merge: %v", rep.MergedAgeSeconds)
	}
}
