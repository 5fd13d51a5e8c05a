package main

// pool_server_test.go — the /t/{tenant} route family and the
// multi-tenant acceptance scenario: many more distinct tenants than the
// budget holds resident, every report still exact after spill/revive.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	l1hh "repro"
	"repro/internal/ckpt"
)

// tenantDefaults builds small deterministic engines: AlgorithmSimple at
// eps=0.1 keeps 10 Misra-Gries counters, and the planted streams below
// use at most 9 distinct ids per tenant, so every estimate is exact and
// evict/revive comparisons need no probabilistic slack.
func tenantDefaults() l1hh.PoolOption {
	return l1hh.WithTenantDefaults(
		l1hh.WithEps(0.1), l1hh.WithPhi(0.3), l1hh.WithStreamLength(1000),
		l1hh.WithUniverse(1<<30), l1hh.WithAlgorithm(l1hh.AlgorithmSimple),
		l1hh.WithSeed(7),
	)
}

// newTestTenantServer builds a tenant server the way newTenantServer
// wires -tenants: a shell with no default engine, and a pool built from
// popts plus the server's pool observer behind /t/{tenant}.
func newTestTenantServer(t *testing.T, spec engineSpec, popts ...l1hh.PoolOption) *server {
	t.Helper()
	s := newShell(spec)
	p, err := l1hh.NewPool(append([]l1hh.PoolOption{l1hh.WithPoolObserver(s.obs.poolTimings())}, popts...)...)
	if err != nil {
		t.Fatal(err)
	}
	s.enablePool(p)
	t.Cleanup(func() { p.Close() })
	return s
}

// newTestPoolServer is a tenant server over the deterministic
// tenantDefaults, with popts applied after them.
func newTestPoolServer(t *testing.T, popts ...l1hh.PoolOption) *server {
	t.Helper()
	return newTestTenantServer(t, engineSpec{}, append([]l1hh.PoolOption{tenantDefaults()}, popts...)...)
}

// tenantStream is one tenant's planted stream: heavy eight times plus
// eight distinct noise singletons (9 distinct ids, exact under the 10
// counters of the test defaults).
func tenantStream(heavy uint64) []uint64 {
	items := []uint64{heavy, heavy, heavy, heavy, heavy, heavy, heavy, heavy}
	for i := uint64(0); i < 8; i++ {
		items = append(items, 1000+i)
	}
	return items
}

// feedTenantHTTP plants tenantStream(heavy) through the binary ingest
// route and fails the test on any non-200.
func feedTenantHTTP(t *testing.T, s *server, tenant string, heavy uint64) {
	t.Helper()
	w := do(t, s, "POST", "/t/"+tenant+"/ingest", "application/octet-stream",
		binaryBody(tenantStream(heavy)))
	if w.Code != http.StatusOK {
		t.Fatalf("ingest %s: status %d: %s", tenant, w.Code, w.Body)
	}
}

// TestEmptyIngestDoesNotRegisterTenant: a zero-item body (empty binary
// or blank NDJSON) must not create the tenant's engine — otherwise
// empty probes permanently register tenants and consume budget.
func TestEmptyIngestDoesNotRegisterTenant(t *testing.T) {
	s := newTestPoolServer(t)
	for _, tc := range []struct {
		name, ct string
		body     []byte
	}{
		{"binary", "application/octet-stream", nil},
		{"ndjson", "application/x-ndjson", []byte("\n \n")},
	} {
		w := do(t, s, "POST", "/t/ghost-"+tc.name+"/ingest", tc.ct, tc.body)
		if w.Code != http.StatusOK {
			t.Fatalf("%s empty ingest: %d: %s", tc.name, w.Code, w.Body)
		}
		var resp map[string]uint64
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp["accepted"] != 0 {
			t.Fatalf("%s empty ingest response: %s (%v)", tc.name, w.Body, err)
		}
		w = do(t, s, "GET", "/t/ghost-"+tc.name+"/report", "", nil)
		if w.Code != http.StatusNotFound {
			t.Fatalf("%s: empty ingest registered the tenant: %d: %s", tc.name, w.Code, w.Body)
		}
	}
	if st := s.pool.Stats(); st.TenantsCreated != 0 || st.TenantsLive != 0 {
		t.Fatalf("empty ingests created engines: %+v", st)
	}
}

func TestTenantRoutes(t *testing.T) {
	s := newTestPoolServer(t)

	feedTenantHTTP(t, s, "alice", 42)
	rep := decodeReport(t, do(t, s, "GET", "/t/alice/report", "", nil))
	if rep.Len != 16 || len(rep.HeavyHitters) == 0 || rep.HeavyHitters[0].Item != 42 {
		t.Fatalf("tenant report = %+v", rep)
	}
	if rep.HeavyHitters[0].Estimate != 8 {
		t.Fatalf("estimate = %v, want exact 8", rep.HeavyHitters[0].Estimate)
	}

	// NDJSON rides the same shared decode path.
	w := do(t, s, "POST", "/t/bob/ingest", "application/x-ndjson",
		[]byte("7\n{\"item\": 7, \"count\": 4}\n"))
	if w.Code != http.StatusOK {
		t.Fatalf("ndjson tenant ingest: %d: %s", w.Code, w.Body)
	}
	rep = decodeReport(t, do(t, s, "GET", "/t/bob/report", "", nil))
	if len(rep.HeavyHitters) == 0 || rep.HeavyHitters[0].Item != 7 || rep.HeavyHitters[0].Estimate != 5 {
		t.Fatalf("bob report = %+v", rep)
	}

	// Percent-escaped names decode through the path value; distinct
	// tenants stay isolated.
	feedTenantHTTP(t, s, "we%20ird%2Fname", 9)
	rep = decodeReport(t, do(t, s, "GET", "/t/we%20ird%2Fname/report", "", nil))
	if len(rep.HeavyHitters) == 0 || rep.HeavyHitters[0].Item != 9 {
		t.Fatalf("escaped-name report = %+v", rep)
	}

	// A tenant checkpoint is a plain solver frame: exportable through
	// the single-solver front door.
	w = do(t, s, "POST", "/t/alice/checkpoint", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("tenant checkpoint: %d: %s", w.Code, w.Body)
	}
	eng, err := l1hh.Unmarshal(w.Body.Bytes())
	if err != nil {
		t.Fatalf("exported tenant frame does not Unmarshal: %v", err)
	}
	if got := eng.Len(); got != 16 {
		t.Fatalf("exported engine Len = %d, want 16", got)
	}
	eng.Close()

	var st statsResponse
	w = do(t, s, "GET", "/t/alice/stats", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("tenant stats: %d: %s", w.Code, w.Body)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Tenant != "alice" || st.Items != 16 || st.ModelBits <= 0 || st.Sentinel != nil {
		t.Fatalf("tenant stats = %+v", st)
	}

	// Error vocabulary: unknown 404, oversized name 400, and no default
	// engine behind the root routes.
	if w := do(t, s, "GET", "/t/ghost/report", "", nil); w.Code != http.StatusNotFound {
		t.Fatalf("unknown tenant report: %d, want 404", w.Code)
	}
	long := strings.Repeat("x", l1hh.MaxTenantName+1)
	if w := do(t, s, "POST", "/t/"+long+"/ingest", "application/x-ndjson", []byte("1\n")); w.Code != http.StatusBadRequest {
		t.Fatalf("oversized tenant name: %d, want 400", w.Code)
	}
	if w := do(t, s, "POST", "/t/alice/ingest", "application/x-protobuf", []byte("x")); w.Code != http.StatusUnsupportedMediaType {
		t.Fatalf("bad content type on tenant route: %d, want 415", w.Code)
	}
	if w := do(t, s, "POST", "/ingest", "application/x-ndjson", []byte("5\n")); w.Code != http.StatusNotFound {
		t.Fatalf("root ingest on a tenant server: %d, want 404", w.Code)
	}
}

// TestTenantServerServesOnlyTenants drives the server newTenantServer
// builds for -tenants at the default flags: no default engine, so the
// root engine routes, /merge and /restore answer 404 and the engine and
// merge metric families are absent, while the /t/{tenant} routes, the
// probes and hhd_pool serve.
func TestTenantServerServesOnlyTenants(t *testing.T) {
	s, err := newTenantServer(l1hh.AlgorithmOptimal, l1hh.HeavyHittersProblem, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.pool.Close() })
	if s.eng != nil {
		t.Fatal("tenant server built a default engine")
	}

	for _, c := range []struct{ method, path string }{
		{"POST", "/ingest"}, {"GET", "/report"}, {"POST", "/checkpoint"}, {"GET", "/stats"},
		{"POST", "/vote"}, {"GET", "/winner"}, {"GET", "/extremes"}, {"GET", "/point?item=1"},
		{"POST", "/merge"}, {"POST", "/restore"},
	} {
		if w := do(t, s, c.method, c.path, "application/x-ndjson", []byte("5\n")); w.Code != http.StatusNotFound {
			t.Errorf("%s %s on a tenant server: %d, want 404", c.method, c.path, w.Code)
		}
	}
	if w := do(t, s, "POST", "/t/alice/ingest", "application/x-ndjson", []byte("5\n5\n7\n")); w.Code != http.StatusOK {
		t.Fatalf("tenant ingest: %d: %s", w.Code, w.Body)
	}
	if rep := decodeReport(t, do(t, s, "GET", "/t/alice/report", "", nil)); rep.Len != 3 {
		t.Fatalf("tenant report = %+v", rep)
	}
	for _, path := range []string{"/healthz", "/readyz", "/metrics", "/t/alice/stats"} {
		if w := do(t, s, "GET", path, "", nil); w.Code != http.StatusOK {
			t.Errorf("GET %s: %d, want 200", path, w.Code)
		}
	}

	sc := scrapePrometheus(t, s)
	for _, family := range []string{
		"hhd_items_total", "hhd_model_bits", "hhd_shards", "hhd_queue_depth",
		"hhd_merges_total", "hhd_merge_errors_total", "hhd_merge_latency_seconds",
		"hhd_merge_staleness_seconds", "hhd_peers",
	} {
		if _, ok := sc.types[family]; ok {
			t.Errorf("engine family %s exposed without an engine", family)
		}
	}
	if got := sc.samples[`hhd_pool{field="items_total"}`]; got != 3 {
		t.Errorf(`hhd_pool{field="items_total"} = %v, want 3`, got)
	}
}

// TestPoolE2EManyTenants is the acceptance scenario: a budget holding
// ~1/10th of the tenants resident sustains the full tenant population
// end to end through the /t/ routes — evictions happen (and are visible
// in the metrics), every tenant's final report is exact after revival,
// and the sentinel tenant audits with zero violations.
func TestPoolE2EManyTenants(t *testing.T) {
	tenants, resident := 10_000, 1_000
	if testing.Short() {
		tenants, resident = 1_000, 100
	}

	// Probe one tenant's footprint to size the budget in model bits.
	probe := newTestPoolServer(t)
	feedTenantHTTP(t, probe, "probe", 1)
	var pst statsResponse
	if err := json.Unmarshal(do(t, probe, "GET", "/t/probe/stats", "", nil).Body.Bytes(), &pst); err != nil {
		t.Fatal(err)
	}
	budget := int64(resident) * pst.ModelBits

	s := newTestPoolServer(t, l1hh.WithPoolBudget(budget))
	// The audited tenant: full-rate sentinel, registered before first
	// touch, pinned resident for the whole run.
	if err := s.pool.SetTenantOptions("audit", l1hh.WithAccuracySentinel(1)); err != nil {
		t.Fatal(err)
	}
	feedTenantHTTP(t, s, "audit", 77)

	name := func(i int) string { return fmt.Sprintf("t%05d", i) }
	heavy := func(i int) uint64 { return uint64(1_000_000 + i) }
	for i := 0; i < tenants; i++ {
		feedTenantHTTP(t, s, name(i), heavy(i))
	}

	st := s.pool.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a %d-resident budget for %d tenants: %+v", resident, tenants, st)
	}
	if st.ModelBitsInUse > budget {
		t.Fatalf("resident bits %d exceed the %d budget after settling", st.ModelBitsInUse, budget)
	}
	if got := st.TenantsLive + st.TenantsSpilled; got != tenants+1 {
		t.Fatalf("tenant census = %d, want %d", got, tenants+1)
	}

	// Every tenant's final report is exact after however many
	// spill/revive cycles it went through.
	for i := 0; i < tenants; i++ {
		rep := decodeReport(t, do(t, s, "GET", "/t/"+name(i)+"/report", "", nil))
		if rep.Len != 16 || len(rep.HeavyHitters) == 0 ||
			rep.HeavyHitters[0].Item != heavy(i) || rep.HeavyHitters[0].Estimate != 8 {
			t.Fatalf("tenant %s report degraded across spill/revive: %+v", name(i), rep)
		}
	}

	// The sentinel tenant stayed pinned and audited cleanly.
	decodeReport(t, do(t, s, "GET", "/t/audit/report", "", nil))
	var ast statsResponse
	if err := json.Unmarshal(do(t, s, "GET", "/t/audit/stats", "", nil).Body.Bytes(), &ast); err != nil {
		t.Fatal(err)
	}
	if ast.Sentinel == nil || ast.Sentinel.Checks == 0 {
		t.Fatalf("sentinel tenant unaudited: %+v", ast)
	}
	if ast.Sentinel.Violations != 0 {
		t.Fatalf("sentinel violations on the audited tenant: %+v", ast.Sentinel)
	}

	// The lifecycle is visible in both metric surfaces.
	w := do(t, s, "GET", "/metrics", "", nil)
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &vars); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	var poolVars map[string]float64
	if err := json.Unmarshal(vars["hhd_pool"], &poolVars); err != nil {
		t.Fatalf("hhd_pool = %s (err %v)", vars["hhd_pool"], err)
	}
	if poolVars["evictions_total"] == 0 || poolVars["revives_total"] == 0 {
		t.Fatalf("hhd_pool lifecycle counters flat: %v", poolVars)
	}
	prom := do(t, s, "GET", "/metrics?format=prometheus", "", nil).Body.String()
	for _, want := range []string{
		`hhd_pool{field="evictions_total"}`,
		`hhd_pool{field="tenants_spilled"}`,
		`hhd_stage_duration_seconds_count{stage="pool_spill"}`,
		`hhd_stage_duration_seconds_count{stage="pool_revive"}`,
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("prometheus exposition missing %s", want)
		}
	}
}

// TestPoolCoordinatorResume pins the pool half of the durability story:
// the coordinator snapshots the pool through the same sink the
// single-engine path uses, and a restart restores every tenant lazily.
func TestPoolCoordinatorResume(t *testing.T) {
	dir := t.TempDir()
	s := newTestPoolServer(t)
	for i := 0; i < 3; i++ {
		feedTenantHTTP(t, s, fmt.Sprintf("t%d", i), uint64(500+i))
	}

	sink, err := ckpt.NewDiskSink(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	co := newCoordinator(s, sink, 0, 0)
	co.snapshot(true)
	if got := s.obs.ckpt.Value(); got != 1 {
		t.Fatalf("snapshot not stored: total = %d", got)
	}
	// No new items: the next periodic snapshot is skipped.
	co.snapshot(false)
	if got := s.obs.ckpt.Value(); got != 1 {
		t.Fatalf("idle pool snapshot not skipped: total = %d", got)
	}

	payload, seq, err := sink.LoadNewest()
	if err != nil || payload == nil {
		t.Fatalf("LoadNewest: payload=%v err=%v", payload != nil, err)
	}
	if seq != 1 {
		t.Fatalf("seq = %d, want 1", seq)
	}
	if !l1hh.IsPoolCheckpoint(payload) {
		t.Fatal("pool coordinator stored a non-pool frame")
	}

	restored, err := l1hh.UnmarshalPool(payload, tenantDefaults())
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if st := restored.Stats(); st.TenantsSpilled != 3 || st.Items != 48 {
		t.Fatalf("restored pool census: %+v", st)
	}
	for i := 0; i < 3; i++ {
		var rep []l1hh.ItemEstimate
		err := restored.View(fmt.Sprintf("t%d", i), func(hh l1hh.HeavyHitters) error {
			rep = hh.Report()
			return nil
		})
		if err != nil || len(rep) == 0 || rep[0].Item != uint64(500+i) {
			t.Fatalf("restored t%d: rep=%v err=%v", i, rep, err)
		}
	}
}
