package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// declaration is BENCHMARK.json, which the benchmark's own lists must match.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadDeclaration(t *testing.T) declaration {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclarationMatches keeps BENCHMARK.json and the metrics the code
// emits in step: same workloads, and the same metric names, units and
// directions in the same order.
func TestDeclarationMatches(t *testing.T) {
	d := loadDeclaration(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the code runs %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, d.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, decl, code []metricDef) {
		if len(decl) != len(code) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the code %d", kind, len(decl), len(code))
		}
		for i, c := range code {
			dm := decl[i]
			if dm.Name != c.Name || dm.Unit != c.Unit || dm.Better != c.Better {
				t.Errorf("%s %d: BENCHMARK.json %+v, code %+v", kind, i, dm, c)
			}
		}
	}
	same("end_to_end", d.EndToEnd, endToEnd)
	same("per_layer", d.PerLayer, perLayer)
}

// TestVerdict pins the compare rules on hand-made samples.
func TestVerdict(t *testing.T) {
	higher := metricDef{Name: "items_per_s", Better: "higher", Bound: 0.1}
	lower := metricDef{Name: "latency_ms", Better: "lower", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name string
		a, b []float64
		d    metricDef
		want string
	}{
		{"same runs", steady, steady, higher, "unchanged"},
		{"within the bound", steady, scale(steady, 0.95), higher, "unchanged"},
		{"worse than the bound", steady, scale(steady, 0.8), higher, "regressed"},
		{"lower is better", steady, scale(steady, 1.2), lower, "regressed"},
		{"every pair wins", steady, scale(steady, 1.2), higher, "improved"},
		{"too few pairs to claim", steady[:3], scale(steady[:3], 1.2), higher, "unchanged"},
		{"spread wider than the bound", []float64{50, 150, 60, 140, 100}, []float64{100, 100, 100, 100, 100}, higher, "unresolved"},
	} {
		if got := verdict(c.a, c.b, c.d); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestSmoke runs every workload traced, on a two-second budget and one
// pass per in-process run, against hhd built once. A traced run includes
// an untraced twin, which execute requires to measure every end-to-end
// metric; the test requires every per-layer metric to be emitted and
// finite, and every final answer to pass the correctness gate. Streams keep
// their full size, since the sketches' guarantees need m well above 1/ε²:
// at a one-second budget, a tenant of daemon-tenants with a few thousand
// items missed its ε·m error bar.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts hhd")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	cfg := &config{seed: 3, seconds: 2, maxPasses: 1, root: root}
	for _, w := range workloads {
		res, err := execute(cfg, w, true, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(perLayer) {
			t.Errorf("%s: %d metrics, want %d", w.name, len(res.Metrics), len(perLayer))
		}
		for _, d := range perLayer {
			m, ok := res.Metrics[d.Name]
			if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
				t.Errorf("%s: metric %s = %+v (present %v)", w.name, d.Name, m, ok)
			}
		}
	}
}
