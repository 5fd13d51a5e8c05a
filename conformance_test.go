package l1hh

// The (ε,ϕ) conformance table. Every composition the front door builds
// is fed fixed-seed streams and held to the paper's contract against
// exact counts by one oracle, internal/exact: every ϕ-heavy item
// reported, nothing at or below (ϕ−ε)·m, and every reported estimate
// within ε·m. Window rows use the oracle's window form: inclusion over
// the last W items, exclusion and estimates over the exact suffix the
// report covers. Every row that serializes then round-trips through
// Unmarshal and must restore the same report, length, model bits and
// window coverage, and re-marshal to the same bytes.
//
// Each test below runs the rows filed under its name, so a cell keeps
// one test path and one parameter set across versions.

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/exact"
)

func TestShardedGuarantees(t *testing.T)          { runConformance(t) }
func TestMergeConformanceSerial(t *testing.T)     { runConformance(t) }
func TestMergeConformanceSharded(t *testing.T)    { runConformance(t) }
func TestWindowedConformanceSerial(t *testing.T)  { runConformance(t) }
func TestWindowedConformanceSharded(t *testing.T) { runConformance(t) }
func TestFrontDoorConformance(t *testing.T)       { runConformance(t) }

// TestPublicListHeavyHittersBothAlgorithms runs each algorithm's
// universe sweep as one suite, so a row's model bits compare against the
// same algorithm's u = 2¹⁶ row.
func TestPublicListHeavyHittersBothAlgorithms(t *testing.T) {
	t.Run("algo=0", runConformance)
	t.Run("algo=1", runConformance)
}

// confRow is one cell of the table.
type confRow struct {
	suite, name string // the test (t.Name()) that runs the row, and the row's subtest path
	stream      string // key into confStreams
	eps, phi    float64
	opts        []Option
	feed        feeder
	restore     []Option // runtime options for Unmarshal
	// window is W for a window row, which is audited in the window form;
	// its covered mass must lie in [W, W+slack).
	window, slack uint64
	// bitsRef names an earlier row of the suite whose model bits this
	// row's must stay under 1.5×: a larger universe may grow only the
	// id-bearing terms.
	bitsRef string
}

// feeder builds an engine from opts and feeds it stream. It is the
// composition a row tests.
type feeder func(t *testing.T, opts []Option, stream []Item) HeavyHitters

// Parameters of each family of rows.
const (
	confEps, confPhi, confM = 0.02, 0.05, 200_000 // sharded, merged, unknown length, pool
	winEps, winPhi          = 0.05, 0.1           // windows
	sweepM                  = 300_000             // the universe sweep, at ε = 0.05, ϕ = 0.1
)

// confRows lists the table.
func confRows() []confRow {
	var rows []confRow
	algos := []Algorithm{AlgorithmOptimal, AlgorithmSimple}
	for _, a := range algos {
		for _, lg := range []int{16, 32, 48, 62} {
			rows = append(rows, confRow{
				suite: fmt.Sprintf("TestPublicListHeavyHittersBothAlgorithms/algo=%d", a), name: fmt.Sprintf("u=2^%d", lg),
				stream: fmt.Sprintf("u=2^%d", lg), eps: 0.05, phi: 0.1,
				opts: []Option{WithDelta(0.1), WithStreamLength(sweepM), WithUniverse(1 << lg),
					WithAlgorithm(a), WithSeed(7)},
				feed: batched(sweepM), bitsRef: "u=2^16",
			})
		}
	}
	known := func(seed uint64, extra ...Option) []Option {
		return append([]Option{WithDelta(0.05), WithStreamLength(confM), WithUniverse(1 << 32), WithSeed(seed)}, extra...)
	}
	for _, k := range []int{1, 2, 4, 8} {
		for _, a := range algos {
			rows = append(rows, confRow{
				suite: "TestShardedGuarantees", name: fmt.Sprintf("shards=%d/algo=%d", k, a),
				stream: "planted", eps: confEps, phi: confPhi,
				opts: known(uint64(7+k), WithAlgorithm(a), WithShards(k)), feed: batched(10_000),
			})
		}
	}
	for _, s := range []string{"zipf", "uniform", "heavy-last", "sorted-runs"} {
		for _, k := range []int{2, 4, 8} {
			for _, a := range algos {
				rows = append(rows, confRow{
					suite: "TestMergeConformanceSerial", name: fmt.Sprintf("%s/k=%d/algo=%d", s, k, a),
					stream: s, eps: confEps, phi: confPhi, opts: known(271, WithAlgorithm(a)), feed: merged(k),
				})
			}
		}
	}
	for _, k := range []int{2, 4} {
		rows = append(rows, confRow{
			suite: "TestMergeConformanceSharded", name: fmt.Sprintf("k=%d", k),
			stream: "zipf", eps: confEps, phi: confPhi, opts: known(277, WithShards(4)), feed: merged(k),
		})
	}
	win := func(extra ...Option) []Option {
		return append([]Option{WithDelta(0.05), WithUniverse(1 << 31), WithSeed(7)}, extra...)
	}
	for _, w := range []uint64{1_000, 100_000} {
		epoch := (w + 7) / 8 // one of the default 8 buckets
		for _, s := range []string{"zipf", "uniform", "regime-shift"} {
			stream := fmt.Sprintf("%s/W=%d", s, w)
			for _, a := range windowAlgos(w) {
				rows = append(rows, confRow{
					suite: "TestWindowedConformanceSerial", name: fmt.Sprintf("%s/W=%d/%s", s, w, algoNames[a]),
					stream: stream, eps: winEps, phi: winPhi,
					opts: win(WithAlgorithm(a), WithCountWindow(w, 0)), feed: halfRestored,
					window: w, slack: epoch,
				})
			}
			// Per-shard windows are ⌈W/4⌉: Algorithm 1 at W = 10³. Calls
			// of at most 256 items keep the arrival stamps fine enough for
			// the fold to trust each shard's share (DESIGN.md §8).
			const k = 4
			rows = append(rows, confRow{
				suite: "TestWindowedConformanceSharded", name: fmt.Sprintf("%s/W=%d", s, w),
				stream: stream, eps: winEps, phi: winPhi,
				opts:   win(WithAlgorithm(windowAlgos(w)[0]), WithShards(k), WithCountWindow(w, 0)),
				feed:   batched(256),
				window: w, slack: k * ((w/k + 7) / 8),
			})
			// A time window of W ticks, one item per tick, covers the last
			// W items and at most one epoch more.
			clock := &tickClock{t: time.Unix(2000, 0)}
			rows = append(rows, confRow{
				suite: "TestFrontDoorConformance", name: fmt.Sprintf("time-window/%s/W=%d", s, w),
				stream: stream, eps: winEps, phi: winPhi,
				opts: win(WithAlgorithm(windowAlgos(w)[0]), WithStreamLength(w),
					WithTimeWindow(time.Duration(w)*time.Millisecond, 0), WithClock(clock.now)),
				feed: clock.feed, restore: []Option{WithClock(clock.now)},
				window: w, slack: epoch + 1,
			})
		}
	}
	for _, s := range []string{"planted", "zipf", "uniform", "heavy-last", "sorted-runs"} {
		unknown := []Option{WithDelta(0.05), WithUniverse(1 << 32), WithSeed(281)}
		rows = append(rows,
			confRow{
				suite: "TestFrontDoorConformance", name: "unknown-length/serial/" + s,
				stream: s, eps: confEps, phi: confPhi, opts: unknown, feed: batched(10_000),
			},
			confRow{
				suite: "TestFrontDoorConformance", name: "unknown-length/shards=4/" + s,
				stream: s, eps: confEps, phi: confPhi, opts: append(unknown, WithShards(4)), feed: batched(10_000),
			},
			confRow{
				suite: "TestFrontDoorConformance", name: "pool-spilled/" + s,
				stream: s, eps: confEps, phi: confPhi, opts: known(283), feed: spilled,
			})
	}
	return rows
}

var algoNames = map[Algorithm]string{AlgorithmOptimal: "optimal", AlgorithmSimple: "simple"}

// windowAlgos returns the engines whose valid regime covers per-bucket
// streams of window length w, the paper's Algorithm 2 first. Algorithm
// 2's accelerated counters carry an O(1/ε) additive error that must stay
// below ε·W, so it needs W ≫ ε⁻²; small windows are Algorithm 1
// territory, which counts exactly at that scale (DESIGN.md §8). ROADMAP
// item 1 is the same edge for whole-stream engines: below about 8/ε²
// declared items Algorithm 2 misses its bound, and no threshold guards
// it yet, so W = 10³ stays Algorithm 1 only.
func windowAlgos(w uint64) []Algorithm {
	if w <= 10_000 {
		return []Algorithm{AlgorithmSimple}
	}
	return []Algorithm{AlgorithmOptimal, AlgorithmSimple}
}

// runConformance runs the rows filed under t's name, in table order.
func runConformance(t *testing.T) {
	bits := map[string]int64{}
	for _, r := range confRows() {
		if r.suite == t.Name() {
			t.Run(r.name, func(t *testing.T) { bits[r.name] = r.run(t, bits) })
		}
	}
}

// run feeds, audits and round-trips the row's engine, returning its
// model bits.
func (r confRow) run(t *testing.T, bits map[string]int64) int64 {
	src := confStreams[r.stream]
	stream := src.get()
	hh := r.feed(t, append([]Option{WithEps(r.eps), WithPhi(r.phi)}, r.opts...), stream)
	rep := hh.Report()
	var v exact.Verdict
	if r.window == 0 {
		if got := hh.Len(); got != uint64(len(stream)) {
			t.Fatalf("Len = %d, want %d", got, len(stream))
		}
		v = exact.Audit(src.counts(), rep, r.eps, r.phi)
	} else {
		m := hh.Len()
		if m < r.window || m >= r.window+r.slack {
			t.Fatalf("covered mass %d outside [W, W+%d) for W = %d", m, r.slack, r.window)
		}
		v = exact.AuditWindow(stream, rep, r.window, m, r.eps, r.phi)
	}
	if err := v.Err(); err != nil {
		t.Error(err)
	}
	for _, x := range src.stale {
		if slices.ContainsFunc(rep, func(e ItemEstimate) bool { return e.Item == x }) {
			t.Errorf("stale heavy item %d still reported", x)
		}
	}
	b := hh.ModelBits()
	if ref, ok := bits[r.bitsRef]; ok && float64(b) >= 1.5*float64(ref) {
		t.Errorf("%d model bits, 1.5× or more the %d of %s", b, ref, r.bitsRef)
	}
	checkRoundTrip(t, hh, rep, r.restore)
	return b
}

// checkRoundTrip restores hh's checkpoint and requires the same report,
// length, model bits and window statistics, and the same bytes again.
// Unknown-length engines do not serialize (Theorems 7–8) and are skipped.
func checkRoundTrip(t *testing.T, hh HeavyHitters, rep []ItemEstimate, opts []Option) {
	t.Helper()
	blob, err := hh.MarshalBinary()
	if errors.Is(err, errNotSerializable) {
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(blob, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { back.Close() })
	again, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) || !slices.Equal(back.Report(), rep) ||
		back.Len() != hh.Len() || back.ModelBits() != hh.ModelBits() {
		t.Fatal("the restored engine differs from the checkpointed one")
	}
	if w, ok := hh.(Windower); ok {
		bw, ok := back.(Windower)
		if !ok {
			t.Fatal("the restored engine lost its window")
		}
		// Span is an age read off the clock at each call.
		got, want := bw.WindowStats(), w.WindowStats()
		got.Span, want.Span = 0, 0
		if got != want {
			t.Fatalf("restored window stats %+v, want %+v", got, want)
		}
	}
}

// batched builds the engine through New and feeds it in calls of at
// most n items.
func batched(n int) feeder {
	return func(t *testing.T, opts []Option, stream []Item) HeavyHitters {
		hh := newNode(t, opts...)
		insertChunks(t, hh, stream, n)
		return hh
	}
}

// insertChunks feeds stream to hh in calls of at most n items.
func insertChunks(t *testing.T, hh HeavyHitters, stream []Item, n int) {
	t.Helper()
	for off := 0; off < len(stream); off += n {
		if err := hh.InsertBatch(stream[off:min(off+n, len(stream))]); err != nil {
			t.Fatal(err)
		}
	}
}

// merged feeds k nodes one contiguous slice of the stream each and folds
// every node's checkpoint into the first through Merger, the way a
// fleet aggregator does.
func merged(k int) feeder {
	return func(t *testing.T, opts []Option, stream []Item) HeavyHitters {
		chunk := (len(stream) + k - 1) / k
		nodes := make([]HeavyHitters, k)
		for i := range nodes {
			nodes[i] = newNode(t, opts...)
			insertChunks(t, nodes[i], stream[i*chunk:min((i+1)*chunk, len(stream))], chunk)
			if i > 0 {
				if err := mergeInto(t, nodes[0], nodes[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		return nodes[0]
	}
}

// halfRestored feeds the first half of the stream one Insert at a time,
// restores a checkpoint taken there, and feeds the rest to the restored
// engine.
func halfRestored(t *testing.T, opts []Option, stream []Item) HeavyHitters {
	hh := newNode(t, opts...)
	insertEach(t, hh, stream[:len(stream)/2], nil)
	blob, err := hh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { back.Close() })
	insertEach(t, back, stream[len(stream)/2:], nil)
	return back
}

// insertEach feeds stream to hh one Insert at a time, calling before
// ahead of each when it is not nil.
func insertEach(t *testing.T, hh HeavyHitters, stream []Item, before func()) {
	t.Helper()
	for _, x := range stream {
		if before != nil {
			before()
		}
		if err := hh.Insert(x); err != nil {
			t.Fatal(err)
		}
	}
}

// spilled feeds a pool tenant the stream in two halves, evicting it to
// the spill store after each, and returns the revived engine.
func spilled(t *testing.T, opts []Option, stream []Item) HeavyHitters {
	p, err := NewPool(WithTenantDefaults(opts...))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	for _, half := range [][]Item{stream[:len(stream)/2], stream[len(stream)/2:]} {
		if err := p.InsertBatch("tenant", half); err != nil {
			t.Fatal(err)
		}
		if err := p.Evict("tenant"); err != nil {
			t.Fatal(err)
		}
	}
	var hh HeavyHitters
	if err := p.View("tenant", func(e HeavyHitters) error { hh = e; return nil }); err != nil {
		t.Fatal(err)
	}
	return hh
}

// tickClock is a test clock that feed advances by one millisecond
// before each item.
type tickClock struct{ t time.Time }

func (c *tickClock) now() time.Time { return c.t }

func (c *tickClock) feed(t *testing.T, opts []Option, stream []Item) HeavyHitters {
	hh := newNode(t, opts...)
	insertEach(t, hh, stream, func() { c.t = c.t.Add(time.Millisecond) })
	return hh
}

// confStream is one fixed-seed stream of the table, generated and
// counted at most once per test binary (rows never run in parallel).
type confStream struct {
	gen   func() []Item
	stale []Item // heavy only before the window: no window row may report them

	items []Item
	truth *exact.Counter
}

func (s *confStream) get() []Item {
	if s.items == nil {
		s.items = s.gen()
	}
	return s.items
}

func (s *confStream) counts() *exact.Counter {
	if s.truth == nil {
		s.truth = exact.Count(s.get())
	}
	return s.truth
}

// confStreams holds the table's streams: those of the whole-stream rows
// have ϕ-heavy items and noise below (ϕ−ε)·m; a window stream is 1.5·W
// items of one regime followed by 1.25·W of another, so the window
// covers only the tail regime.
var confStreams = func() map[string]*confStream {
	planted := func(seed uint64, order StreamOrder) func() []Item {
		return func() []Item {
			return GeneratePlantedStream(seed, confM, []float64{0.20, 0.12, 0.06}, 100, 1<<30, order)
		}
	}
	s := map[string]*confStream{
		"planted":     {gen: planted(31, OrderShuffled)},
		"zipf":        {gen: func() []Item { return Generate(NewZipfStream(101, 1<<20, 1.3), confM) }},
		"uniform":     {gen: func() []Item { return Generate(NewUniformStream(103, 12), confM) }},
		"heavy-last":  {gen: planted(105, OrderHeavyLast)}, // every heavy item arrives after the noise
		"sorted-runs": {gen: planted(107, OrderSorted)},    // each id's copies are contiguous
	}
	for _, lg := range []int{16, 32, 48, 62} {
		u := uint64(1) << lg
		s[fmt.Sprintf("u=2^%d", lg)] = &confStream{gen: func() []Item {
			return GeneratePlantedStream(1, sweepM, []float64{0.2, 0.12, 0.02}, 1000, u/2, OrderShuffled)
		}}
	}
	for _, w := range []int{1_000, 100_000} {
		s[fmt.Sprintf("zipf/W=%d", w)] = &confStream{gen: func() []Item {
			return Generate(NewZipfStream(211, 1<<20, 1.3), 11*w/4)
		}}
		s[fmt.Sprintf("uniform/W=%d", w)] = &confStream{gen: func() []Item {
			return Generate(NewUniformStream(223, 8), 11*w/4)
		}}
		// Ids 1–3 carry the first phase and 11–13 the second: the
		// window must report the second family and have forgotten the
		// first.
		s[fmt.Sprintf("regime-shift/W=%d", w)] = &confStream{stale: []Item{1, 2, 3}, gen: func() []Item {
			return append(
				GeneratePlantedStream(227, 3*w/2, []float64{0, 0.20, 0.12, 0.06}, 1<<20, 1<<30, OrderShuffled),
				GeneratePlantedStream(229, 5*w/4, []float64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0.20, 0.12, 0.06}, 1<<20, 1<<30, OrderShuffled)...)
		}}
	}
	return s
}()
