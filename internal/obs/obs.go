// Package obs is the zero-dependency metrics core behind the repo's
// observability tier: lock-free counters and gauges, fixed-bucket
// latency histograms, a hand-rolled Prometheus text-exposition writer
// (prometheus.go) and a JSON view of the same families (json.go) — no
// client library, and no reflection or allocation on any hot path.
//
// Design constraints, in order:
//
//  1. Hot-path cost. Counter.Add and Histogram.Observe are one or two
//     uncontended atomic adds — no mutex, no map lookup, no allocation.
//     Instrumented code holds a *Counter/*Histogram pointer obtained
//     once at registration; the Registry is only consulted at scrape
//     time.
//  2. Nil safety. Every mutating method is a no-op on a nil receiver,
//     so disabled instrumentation is a nil pointer and one predictable
//     branch — the pattern the shard layer's ArrivalObserver
//     established (DESIGN.md §8, §10).
//  3. Scrape coherence is NOT promised. Metrics are monitoring data:
//     a scrape may observe a histogram's buckets mid-update (count and
//     sum drifting by an observation or two). Anything needing a
//     coherent snapshot belongs in l1hh.Stats, which is a barrier.
//
// Registration is expvar-like: panics on duplicate series or malformed
// names, because both are programmer errors caught by the first scrape
// of a test run.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric: events, items, errors.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; 0 on a nil receiver.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a point-in-time float64 metric: queue depth, model bits,
// staleness. Stored as float64 bits in one atomic word.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last stored value; 0 on a nil receiver.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Label is one name="value" pair attached to a series.
type Label struct {
	// Key is the label name (Prometheus label-name grammar).
	Key string
	// Value is the label value (any UTF-8; escaped on exposition).
	Value string
}

// L builds a label set from alternating key, value strings; it panics
// on an odd count (programmer error).
func L(kv ...string) []Label {
	if len(kv)%2 != 0 {
		panic("obs: L needs alternating key, value pairs")
	}
	out := make([]Label, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		out = append(out, Label{Key: kv[i], Value: kv[i+1]})
	}
	return out
}

// Type is a metric family's Prometheus type.
type Type int

// Metric family types, matching the Prometheus exposition TYPE line.
const (
	// TypeCounter is a monotonically increasing value.
	TypeCounter Type = iota
	// TypeGauge is a point-in-time value.
	TypeGauge
	// TypeHistogram is a fixed-bucket distribution.
	TypeHistogram
)

// String is the exposition-format spelling ("counter", "gauge",
// "histogram"; anything else renders as "untyped").
func (t Type) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Sample is one dynamically produced series value, for SeriesFunc
// families whose series set is only known at scrape time (per-shard
// gauges after a restore changes the shard count, optional subsystems).
type Sample struct {
	// Labels distinguish this series within its family; may be nil.
	Labels []Label
	// Value is the sample value.
	Value float64
}

// series is one registered static series within a family.
type series struct {
	labels []Label
	key    string // canonical rendered label set, for dedupe
	c      *Counter
	g      *Gauge
	fn     func() float64
	h      *Histogram
}

// family is one metric name: its help text, type, and series.
type family struct {
	name   string
	help   string
	typ    Type
	series []*series
	// fn produces the family's samples dynamically; mutually exclusive
	// with static series.
	fn func() []Sample
}

// Registry is an ordered collection of metric families. Registration
// happens at construction time (and is mutex-guarded); reads of
// registered metrics are lock-free.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// Counter registers and returns a counter series. Panics on a
// malformed name, a type conflict with an existing family, or a
// duplicate label set.
func (r *Registry) Counter(name, help string, labels []Label) *Counter {
	c := &Counter{}
	r.add(name, help, TypeCounter, labels, &series{c: c})
	return c
}

// Gauge registers and returns a gauge series (same panics as Counter).
func (r *Registry) Gauge(name, help string, labels []Label) *Gauge {
	g := &Gauge{}
	r.add(name, help, TypeGauge, labels, &series{g: g})
	return g
}

// GaugeFunc registers a gauge series computed by fn at scrape time —
// for values owned elsewhere (uptime, derived rates).
func (r *Registry) GaugeFunc(name, help string, labels []Label, fn func() float64) {
	if fn == nil {
		panic("obs: GaugeFunc with nil fn")
	}
	r.add(name, help, TypeGauge, labels, &series{fn: fn})
}

// CounterFunc registers a counter series computed by fn at scrape time
// — for monotone values owned elsewhere (an engine's accepted-items
// count). fn must be monotone; the registry does not check.
func (r *Registry) CounterFunc(name, help string, labels []Label, fn func() float64) {
	if fn == nil {
		panic("obs: CounterFunc with nil fn")
	}
	r.add(name, help, TypeCounter, labels, &series{fn: fn})
}

// SeriesFunc registers a whole family produced dynamically at scrape
// time: fn returns the current samples, each with its own label set.
// Returning nil omits the family from the exposition entirely — the
// escape hatch for optional subsystems (windows, sentinel) and for
// label sets that change at runtime (per-shard series after a restore).
// typ must be TypeCounter or TypeGauge.
func (r *Registry) SeriesFunc(name, help string, typ Type, fn func() []Sample) {
	if fn == nil {
		panic("obs: SeriesFunc with nil fn")
	}
	if typ != TypeCounter && typ != TypeGauge {
		panic("obs: SeriesFunc supports counter and gauge families only")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	checkName(name)
	if r.byName[name] != nil {
		panic(fmt.Sprintf("obs: duplicate metric family %q", name))
	}
	f := &family{name: name, help: help, typ: typ, fn: fn}
	r.byName[name] = f
	r.families = append(r.families, f)
}

// Histogram registers and returns a histogram series with the given
// upper bucket bounds (strictly increasing; an implicit +Inf bucket is
// appended). Same panics as Counter, plus malformed bounds.
func (r *Registry) Histogram(name, help string, labels []Label, bounds []float64) *Histogram {
	h := newHistogram(bounds)
	r.add(name, help, TypeHistogram, labels, &series{h: h})
	return h
}

// add validates and installs one static series.
func (r *Registry) add(name, help string, typ Type, labels []Label, s *series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	checkName(name)
	for _, l := range labels {
		checkLabelName(l.Key)
	}
	s.labels = append([]Label(nil), labels...)
	s.key = renderLabels(s.labels)
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	if f.fn != nil {
		panic(fmt.Sprintf("obs: metric family %q is dynamic (SeriesFunc); cannot add static series", name))
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric family %q registered as %s, not %s", name, f.typ, typ))
	}
	for _, exist := range f.series {
		if exist.key == s.key {
			panic(fmt.Sprintf("obs: duplicate series %s%s", name, s.key))
		}
	}
	f.series = append(f.series, s)
}

// snapshotFamilies copies the family list under the lock so exposition
// can run without holding it (SeriesFunc callbacks may be slow).
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*family(nil), r.families...)
}

// checkName panics unless name matches the Prometheus metric-name
// grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func checkName(name string) {
	if !validName(name, true) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
}

// checkLabelName panics unless name matches [a-zA-Z_][a-zA-Z0-9_]*.
func checkLabelName(name string) {
	if !validName(name, false) {
		panic(fmt.Sprintf("obs: invalid label name %q", name))
	}
}

func validName(name string, allowColon bool) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c == ':' && allowColon:
		case c >= '0' && c <= '9' && i > 0:
		default:
			return false
		}
	}
	return true
}

// renderLabels renders a label set canonically (sorted by key) as
// {k="v",…}; empty for no labels. Used both for series dedupe and for
// exposition.
func renderLabels(labels []Label) string {
	return renderLabelsExtra(labels, "", "")
}

// renderLabelsExtra renders labels plus one optional extra pair
// (histograms append le="bound" without allocating a new set).
func renderLabelsExtra(labels []Label, extraKey, extraValue string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.SliceStable(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	out := "{"
	for i, l := range ls {
		if i > 0 {
			out += ","
		}
		out += l.Key + `="` + escapeLabelValue(l.Value) + `"`
	}
	if extraKey != "" {
		if len(ls) > 0 {
			out += ","
		}
		out += extraKey + `="` + escapeLabelValue(extraValue) + `"`
	}
	return out + "}"
}

// escapeLabelValue applies the exposition-format escapes for label
// values: backslash, double quote, newline.
func escapeLabelValue(v string) string {
	out := make([]byte, 0, len(v))
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			out = append(out, '\\', '\\')
		case '"':
			out = append(out, '\\', '"')
		case '\n':
			out = append(out, '\\', 'n')
		default:
			out = append(out, v[i])
		}
	}
	return string(out)
}
