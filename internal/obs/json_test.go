package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

// TestWriteJSON pins the JSON view's shapes: an unlabeled family is its
// value, a labeled one an object keyed by label value, a histogram its
// count and sum; an empty SeriesFunc family is omitted and NaN is null.
func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_ops_total", "operations", nil).Add(42)
	r.SeriesFunc("app_depth", "per-shard", TypeGauge, func() []Sample {
		return []Sample{{Labels: L("shard", "0"), Value: 1}, {Labels: L("shard", "1"), Value: 2.5}}
	})
	h := r.Histogram("app_latency_seconds", "latency", L("stage", "report"), []float64{0.01, 0.1})
	h.Observe(0.25)
	h.Observe(0.5)
	r.SeriesFunc("app_absent", "omitted while empty", TypeGauge, func() []Sample { return nil })
	r.GaugeFunc("app_ratio", "undefined before the first sample", nil, func() float64 { return math.NaN() })
	r.Gauge("app_pair", "two labels", L("b", "y", "a", "x")).Set(3)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("WriteJSON output is not JSON: %v\n%s", err, buf.String())
	}
	want := map[string]any{
		"app_ops_total":       42.0,
		"app_depth":           map[string]any{"0": 1.0, "1": 2.5},
		"app_latency_seconds": map[string]any{"report": map[string]any{"count": 2.0, "sum": 0.75}},
		"app_ratio":           nil,
		"app_pair":            map[string]any{"x,y": 3.0},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("WriteJSON = %s\nwant %v", buf.String(), want)
	}
}
