package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds the raw spans a traced run keeps for its trace file;
// the per-name aggregates count every span regardless.
const maxSpans = 200_000

// span is one timed call into a layer, in nanoseconds since the tracer
// started. Spans of one request share Req; Parent is the enclosing span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanAgg summarises every span of one name.
type spanAgg struct {
	count, nonzero int64
	sumNs, childNs int64
	hist           histogram
}

// tracer keeps a traced run's spans in memory and writes them out at the
// end. It is safe for concurrent use: the shard hooks call it from the
// engine's worker goroutines. A nil *tracer records nothing, so untraced
// runs call the same methods.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	// open is the span nested hooks are children of: the producer's
	// current InsertBatch, which the shard EnqueueWait hook runs inside.
	open atomic.Int64

	mu      sync.Mutex
	aggs    map[string]*spanAgg
	parents map[int64]string // names of the spans children nest under
	spans   []span
	dropped int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), aggs: map[string]*spanAgg{}, parents: map[int64]string{}}
}

// newID reserves a span id, so children can name their parent before the
// parent span ends; 0 when untraced.
func (t *tracer) newID() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// add records a finished span.
func (t *tracer) add(id, parent, req int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	d := s.End - s.Start
	t.mu.Lock()
	defer t.mu.Unlock()
	a := t.aggs[name]
	if a == nil {
		a = &spanAgg{}
		t.aggs[name] = a
	}
	a.count++
	a.sumNs += d
	if d > 0 {
		a.nonzero++
	}
	a.hist.observe(d)
	if pname, ok := t.parents[parent]; ok {
		t.aggs[pname].childNs += d
	}
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
}

// enter makes id the span the ingest hooks nest under until leave.
func (t *tracer) enter(id int64, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.aggs[name] == nil {
		t.aggs[name] = &spanAgg{}
	}
	t.parents[id] = name
	t.mu.Unlock()
	t.open.Store(id)
}

func (t *tracer) leave(id int64) {
	if t == nil {
		return
	}
	t.open.Store(0)
	t.mu.Lock()
	delete(t.parents, id)
	t.mu.Unlock()
}

// hook returns a duration callback for a layer that reports only how long
// it took (the l1hh IngestTimings shape): the span ends now and, when
// nested, is a child of the open span — true of hooks that run on the
// caller's goroutine inside its call, false of those on worker
// goroutines. Untraced, it is nil, which l1hh treats as disabled.
func (t *tracer) hook(name string, nested bool) func(time.Duration) {
	if t == nil {
		return nil
	}
	return func(d time.Duration) {
		end := time.Now()
		var parent int64
		if nested {
			parent = t.open.Load()
		}
		t.add(t.newID(), parent, 0, name, end.Add(-d), end)
	}
}

// layer is one row of the per-layer table.
type layer struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	Nonzero int64   `json:"nonzero"`
	SumS    float64 `json:"sum_s"`
	SelfS   float64 `json:"self_s"`
	P50us   float64 `json:"p50_us"`
	P99us   float64 `json:"p99_us"`
}

// layers returns the per-name table, sorted by name. Self time is the
// span time not covered by child spans; children of one parent run one
// after another on the parent's goroutine, so their durations add.
func (t *tracer) layers() []layer {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []layer
	for name, a := range t.aggs {
		out = append(out, layer{
			Name: name, Count: a.count, Nonzero: a.nonzero,
			SumS:  float64(a.sumNs) / 1e9,
			SelfS: float64(a.sumNs-a.childNs) / 1e9,
			P50us: a.hist.quantile(0.5) / 1e3,
			P99us: a.hist.quantile(0.99) / 1e3,
		})
	}
	slices.SortFunc(out, func(a, b layer) int {
		if a.Name < b.Name {
			return -1
		}
		if a.Name > b.Name {
			return 1
		}
		return 0
	})
	return out
}

// layer returns the row for name, zero when no such span was recorded.
func (t *tracer) layer(name string) layer {
	for _, l := range t.layers() {
		if l.Name == name {
			return l
		}
	}
	return layer{Name: name}
}

// write saves the spans and the per-layer table to dir/<workload>.trace.json.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ls := t.layers()
	t.mu.Lock()
	doc := struct {
		Workload     string  `json:"workload"`
		Layers       []layer `json:"layers"`
		DroppedSpans int64   `json:"dropped_spans"`
		Spans        []span  `json:"spans"`
	}{workload, ls, t.dropped, t.spans}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), b, 0o644)
}

// printLayers writes the per-layer table in aligned columns.
func printLayers(w io.Writer, ls []layer) {
	fmt.Fprintf(w, "%-26s %10s %10s %12s %12s %12s %12s\n",
		"span", "count", "nonzero", "sum_s", "self_s", "p50_us", "p99_us")
	for _, l := range ls {
		fmt.Fprintf(w, "%-26s %10d %10d %12.4f %12.4f %12.2f %12.2f\n",
			l.Name, l.Count, l.Nonzero, l.SumS, l.SelfS, l.P50us, l.P99us)
	}
}
