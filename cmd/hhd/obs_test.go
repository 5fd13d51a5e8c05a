package main

import (
	"encoding/json"
	"maps"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	l1hh "repro"
	"repro/internal/obs"
)

// sentinelSpec is testSpec plus the accuracy sentinel, for exercising
// the hhd_sentinel families end to end.
func sentinelSpec(m, seed uint64) engineSpec {
	spec := testSpec(m, seed)
	spec.build = append(spec.build, l1hh.WithAccuracySentinel(0.5))
	return spec
}

// promScrape is a strict little parser for the text exposition format:
// every non-comment line must be `series value`, every series must
// belong to a family announced by a # TYPE line.
type promScrape struct {
	types   map[string]string  // family name -> counter|gauge|histogram
	samples map[string]float64 // full series (name + labels) -> value
	order   []string           // series in exposition order
}

func scrapePrometheus(t *testing.T, s *server) *promScrape {
	t.Helper()
	w := do(t, s, "GET", "/metrics?format=prometheus", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("prometheus scrape status %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("Content-Type %q, want %q", ct, obs.ContentType)
	}
	sc := &promScrape{types: map[string]string{}, samples: map[string]float64{}}
	for _, line := range strings.Split(w.Body.String(), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			sc.types[fields[2]] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment form %q", line)
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		series, raw := line[:i], line[i+1:]
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		family := series
		if j := strings.IndexByte(series, '{'); j >= 0 {
			family = series[:j]
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("unterminated label set in %q", line)
			}
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(family,
			"_bucket"), "_sum"), "_count")
		if _, ok := sc.types[base]; !ok {
			if _, ok := sc.types[family]; !ok {
				t.Fatalf("series %q precedes its # TYPE header", series)
			}
		}
		if _, dup := sc.samples[series]; dup {
			t.Fatalf("duplicate series %q", series)
		}
		sc.samples[series] = v
		sc.order = append(sc.order, series)
		_ = family
	}
	return sc
}

// stageBuckets returns the cumulative bucket values of one stage's
// histogram in exposition order.
func (sc *promScrape) stageBuckets(stage string) []float64 {
	var out []float64
	for _, series := range sc.order {
		if strings.HasPrefix(series, "hhd_stage_duration_seconds_bucket{") &&
			strings.Contains(series, `stage="`+stage+`"`) {
			out = append(out, sc.samples[series])
		}
	}
	return out
}

func (sc *promScrape) families() []string {
	out := make([]string, 0, len(sc.types))
	for f := range sc.types {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// TestPrometheusExposition drives ingest→report→checkpoint through the
// HTTP handlers and asserts the scrape parses, the stage histograms
// moved, and the buckets are cumulative.
func TestPrometheusExposition(t *testing.T) {
	const m = 50_000
	s, err := newServer(sentinelSpec(m, 7))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.engine().Close() })

	stream := plantedStream(m)
	if w := do(t, s, "POST", "/ingest", "application/octet-stream", binaryBody(stream)); w.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", w.Code, w.Body)
	}
	if w := do(t, s, "GET", "/report", "", nil); w.Code != http.StatusOK {
		t.Fatalf("report status %d: %s", w.Code, w.Body)
	}
	if w := do(t, s, "POST", "/checkpoint", "", nil); w.Code != http.StatusOK {
		t.Fatalf("checkpoint status %d: %s", w.Code, w.Body)
	}

	sc := scrapePrometheus(t, s)

	if got := sc.samples["hhd_items_total"]; got != m {
		t.Fatalf("hhd_items_total = %v, want %d", got, m)
	}
	for _, stage := range []string{stageIngestDecode, stageEnqueueWait, stageBatchApply, stageReport, stageCkptEncode} {
		count := sc.samples[`hhd_stage_duration_seconds_count{stage="`+stage+`"}`]
		if count < 1 {
			t.Fatalf("stage %q histogram did not move (count %v)\nfamilies: %v",
				stage, count, sc.families())
		}
		buckets := sc.stageBuckets(stage)
		if len(buckets) == 0 {
			t.Fatalf("stage %q has no buckets", stage)
		}
		for i := 1; i < len(buckets); i++ {
			if buckets[i] < buckets[i-1] {
				t.Fatalf("stage %q buckets not cumulative: %v", stage, buckets)
			}
		}
		if last := buckets[len(buckets)-1]; last != count {
			t.Fatalf("stage %q +Inf bucket %v != count %v", stage, last, count)
		}
	}
	if sc.types["hhd_stage_duration_seconds"] != "histogram" {
		t.Fatalf("hhd_stage_duration_seconds typed %q", sc.types["hhd_stage_duration_seconds"])
	}

	// The sentinel audited the report: its families must be live.
	if v := sc.samples[`hhd_sentinel{field="checks_total"}`]; v < 1 {
		t.Fatalf("sentinel checks_total = %v after a report", v)
	}
	if v := sc.samples[`hhd_sentinel{field="violations_total"}`]; v != 0 {
		t.Fatalf("correct engine scraped %v violations", v)
	}
	if _, ok := sc.samples["hhd_guarantee_violations_total"]; !ok {
		t.Fatal("hhd_guarantee_violations_total missing")
	}
	if v := sc.samples["hhd_sentinel_observed_eps_count"]; v < 1 {
		t.Fatalf("observed-eps histogram did not record (count %v)", v)
	}

	// Per-shard queue gauges: one series per shard of the test spec.
	depths := 0
	for series := range sc.samples {
		if strings.HasPrefix(series, "hhd_queue_depth{") {
			depths++
		}
	}
	if depths != 4 {
		t.Fatalf("hhd_queue_depth has %d series, want 4", depths)
	}
}

// TestPrometheusOmitsDormantFamilies: no -window and no -sentinel means
// no hhd_window / hhd_sentinel series or headers at all.
func TestPrometheusOmitsDormantFamilies(t *testing.T) {
	s := newTestServer(t, 10_000)
	do(t, s, "GET", "/report", "", nil)
	sc := scrapePrometheus(t, s)
	for _, family := range []string{"hhd_window", "hhd_sentinel"} {
		if _, ok := sc.types[family]; ok {
			t.Fatalf("dormant family %q exposed", family)
		}
		for series := range sc.samples {
			if strings.HasPrefix(series, family+"{") {
				t.Fatalf("dormant series %q exposed", series)
			}
		}
	}
	// And a windowed server exposes hhd_window.
	ws := newWindowServer(t, 1000)
	do(t, ws, "POST", "/ingest", "application/octet-stream", binaryBody(plantedStream(2000)))
	wsc := scrapePrometheus(t, ws)
	if _, ok := wsc.samples[`hhd_window{field="covered"}`]; !ok {
		t.Fatalf("windowed server missing hhd_window: %v", wsc.families())
	}
}

// TestMetricsViewsAgree: the JSON view of /metrics and the Prometheus
// exposition render one registry, so every family appears under the
// same name in both, and both carry the same values — on an engine
// server with the sentinel, and on a tenant server, which exposes
// hhd_pool in place of the engine families.
func TestMetricsViewsAgree(t *testing.T) {
	const m = 20_000
	eng, err := newServer(sentinelSpec(m, 3))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.engine().Close() })
	do(t, eng, "POST", "/ingest", "application/octet-stream", binaryBody(plantedStream(m)))
	do(t, eng, "GET", "/report", "", nil)

	tenants := newTestPoolServer(t)
	feedTenantHTTP(t, tenants, "alice", 42)
	do(t, tenants, "GET", "/t/alice/report", "", nil)

	for _, c := range []struct {
		name    string
		s       *server
		want    []string // families the scenario must exercise
		scalars []string // unlabeled families whose values must agree
	}{
		{"engine", eng,
			[]string{"hhd_sentinel", "hhd_queue_depth", "hhd_stage_duration_seconds"},
			[]string{"hhd_items_total", "hhd_model_bits", "hhd_shards"}},
		{"tenants", tenants,
			[]string{"hhd_pool", "hhd_stage_duration_seconds"},
			[]string{"hhd_ready", "hhd_peers"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := do(t, c.s, "GET", "/metrics", "", nil)
			if w.Code != http.StatusOK {
				t.Fatalf("JSON scrape status %d", w.Code)
			}
			var view map[string]json.RawMessage
			if err := json.Unmarshal(w.Body.Bytes(), &view); err != nil {
				t.Fatalf("JSON view does not parse: %v\n%s", err, w.Body)
			}
			sc := scrapePrometheus(t, c.s)
			jsonFamilies := slices.Sorted(maps.Keys(view))
			if promFamilies := sc.families(); !slices.Equal(jsonFamilies, promFamilies) {
				t.Fatalf("family sets differ:\njson       %v\nprometheus %v", jsonFamilies, promFamilies)
			}
			for _, f := range c.want {
				if _, ok := view[f]; !ok {
					t.Errorf("scenario did not exercise %s", f)
				}
			}

			// Values the scrapes cannot move between the two reads agree too.
			for _, f := range c.scalars {
				var v float64
				if err := json.Unmarshal(view[f], &v); err != nil || v != sc.samples[f] {
					t.Errorf("%s: json %s (err %v), prometheus %v", f, view[f], err, sc.samples[f])
				}
			}
			var stages map[string]struct{ Count float64 }
			json.Unmarshal(view["hhd_stage_duration_seconds"], &stages)
			if got, want := stages["report"].Count, sc.samples[`hhd_stage_duration_seconds_count{stage="report"}`]; got != want || got < 1 {
				t.Errorf("report stage count: json %v, prometheus %v", got, want)
			}
		})
	}

	// hhd_pool's fields agree across the views as well.
	var view struct {
		Pool map[string]float64 `json:"hhd_pool"`
	}
	if err := json.Unmarshal(do(t, tenants, "GET", "/metrics", "", nil).Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	sc := scrapePrometheus(t, tenants)
	for _, f := range []string{"items_total", "model_bits_in_use", "tenants_live"} {
		if got, want := view.Pool[f], sc.samples[`hhd_pool{field="`+f+`"}`]; got != want || got == 0 {
			t.Errorf("hhd_pool %s: json %v, prometheus %v", f, got, want)
		}
	}
}

// TestReadyz pins the liveness/readiness split: /healthz always answers
// 200, /readyz flips to 503 while warming or draining.
func TestReadyz(t *testing.T) {
	s := newTestServer(t, 10_000)
	if w := do(t, s, "GET", "/healthz", "", nil); w.Code != http.StatusOK {
		t.Fatalf("healthz %d", w.Code)
	}
	if w := do(t, s, "GET", "/readyz", "", nil); w.Code != http.StatusOK {
		t.Fatalf("ready worker answered %d: %s", w.Code, w.Body)
	}

	// Aggregator warming: not ready until the first complete pull.
	s.ready.Store(false)
	if w := do(t, s, "GET", "/readyz", "", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("warming server answered %d", w.Code)
	} else if !strings.Contains(w.Body.String(), "warming") {
		t.Fatalf("warming body %q", w.Body)
	}
	if w := do(t, s, "GET", "/healthz", "", nil); w.Code != http.StatusOK {
		t.Fatalf("healthz must stay 200 while warming, got %d", w.Code)
	}
	s.ready.Store(true)

	s.setDraining()
	if w := do(t, s, "GET", "/readyz", "", nil); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining server answered %d", w.Code)
	} else if !strings.Contains(w.Body.String(), "draining") {
		t.Fatalf("draining body %q", w.Body)
	}
	if w := do(t, s, "GET", "/healthz", "", nil); w.Code != http.StatusOK {
		t.Fatalf("healthz must stay 200 while draining, got %d", w.Code)
	}
	if v := s.obs.reg; v == nil {
		t.Fatal("server registry missing")
	}
}
