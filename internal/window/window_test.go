package window

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
	"repro/internal/wire"
)

// testEngine is an exact-counting engine: Report returns every item with
// its true count, so window tests can assert coverage boundaries
// precisely. It implements the full contract the window layer relies on
// (shard.Engine + Marshaler + EngineMerger).
type testEngine struct {
	freq map[uint64]uint64
	n    uint64
}

func newTestEngine() (Engine, error) {
	return &testEngine{freq: make(map[uint64]uint64)}, nil
}

func (e *testEngine) Insert(x uint64) { e.freq[x]++; e.n++ }
func (e *testEngine) InsertBatch(xs []uint64) {
	for _, x := range xs {
		e.Insert(x)
	}
}
func (e *testEngine) Len() uint64 { return e.n }
func (e *testEngine) ModelBits() int64 {
	return int64(len(e.freq)) * 128
}
func (e *testEngine) Report() []core.ItemEstimate {
	out := make([]core.ItemEstimate, 0, len(e.freq))
	for x, f := range e.freq {
		out = append(out, core.ItemEstimate{Item: x, F: float64(f)})
	}
	core.SortEstimates(out)
	return out
}
func (e *testEngine) MarshalBinary() ([]byte, error) {
	w := wire.NewWriter()
	w.U64(e.n)
	w.Map(e.freq)
	return w.Bytes(), nil
}
func restoreTestEngine(blob []byte) (Engine, error) {
	r := wire.NewReader(blob)
	e := &testEngine{n: r.U64(), freq: r.Map()}
	if r.Err() != nil || !r.Done() {
		return nil, errors.New("testEngine: corrupt blob")
	}
	if e.freq == nil {
		e.freq = make(map[uint64]uint64)
	}
	return e, nil
}
func (e *testEngine) MergeEngine(other shard.Engine) error {
	o, ok := other.(*testEngine)
	if !ok {
		return fmt.Errorf("testEngine: cannot merge %T", other)
	}
	for x, f := range o.freq {
		e.freq[x] += f
	}
	e.n += o.n
	return nil
}
func (e *testEngine) CheckMergeEngine(other shard.Engine) error {
	if _, ok := other.(*testEngine); !ok {
		return fmt.Errorf("testEngine: cannot merge %T", other)
	}
	return nil
}

func newCountWindow(t *testing.T, lastN uint64, buckets int) *Window {
	t.Helper()
	w, err := New(newTestEngine, restoreTestEngine, Options{LastN: lastN, Buckets: buckets})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// reportSet runs Report and returns the reported items as a set of
// item → estimate.
func reportSet(t *testing.T, w *Window) map[uint64]float64 {
	t.Helper()
	rep, err := w.Report()
	if err != nil {
		t.Fatalf("Report: %v", err)
	}
	out := make(map[uint64]float64, len(rep))
	for _, r := range rep {
		out[r.Item] = r.F
	}
	return out
}

// TestCountWindowCoverage drives a count window with distinct ids and
// checks, at every single stream position, that the report covers
// exactly the last Len() items and that Len() stays within the
// documented [min(W, total), W + ⌈W/B⌉) envelope. Distinct ids make
// coverage observable item-by-item, so bucket-boundary off-by-ones
// (seal exactly at capacity, retire exactly at window mass) would show
// up at the precise positions they occur.
func TestCountWindowCoverage(t *testing.T) {
	const W, B = 10, 5
	cap := uint64(2) // ⌈10/5⌉
	w := newCountWindow(t, W, B)
	for i := uint64(1); i <= 40; i++ {
		w.Insert(i)
		covered := w.Len()
		if covered < min(W, i) {
			t.Fatalf("after %d inserts: covered %d < window %d", i, covered, min(W, i))
		}
		if covered >= W+cap && i >= W {
			t.Fatalf("after %d inserts: covered %d ≥ W+cap = %d", i, covered, W+cap)
		}
		got := reportSet(t, w)
		if uint64(len(got)) != covered {
			t.Fatalf("after %d inserts: report has %d items, covered %d", i, len(got), covered)
		}
		// The covered set must be exactly the most recent `covered` ids.
		for id := i - covered + 1; id <= i; id++ {
			if got[id] != 1 {
				t.Fatalf("after %d inserts (covered %d): id %d missing or wrong estimate %g",
					i, covered, id, got[id])
			}
		}
	}
	st := w.Stats()
	if st.Total != 40 || st.Covered+st.Retired != st.Total {
		t.Fatalf("stats don't add up: %+v", st)
	}
	if st.RetiredBuckets == 0 {
		t.Fatalf("expected retired buckets after 40 inserts: %+v", st)
	}
}

// TestCountWindowRepeats checks frequencies (not just membership)
// across bucket boundaries: a heavy id keeps its full window count while
// retired mass drops off.
func TestCountWindowRepeats(t *testing.T) {
	const W = 12
	w := newCountWindow(t, W, 4) // cap 3
	// Phase 1: id 1 exclusively. Phase 2: id 2 exclusively.
	for i := 0; i < 30; i++ {
		w.Insert(1)
	}
	for i := 0; i < 30; i++ {
		w.Insert(2)
	}
	got := reportSet(t, w)
	if got[1] != 0 {
		t.Fatalf("id 1 should have fully aged out, still reported with %g", got[1])
	}
	if got[2] != float64(w.Len()) {
		t.Fatalf("id 2 should carry the whole covered mass %d, got %g", w.Len(), got[2])
	}
}

// TestWindowOne: W=1 with cap 1 tracks exactly the last item.
func TestWindowOne(t *testing.T) {
	w := newCountWindow(t, 1, 0) // default buckets; cap = ⌈1/8⌉ = 1
	for i := uint64(0); i < 20; i++ {
		w.Insert(i)
		if w.Len() != 1 {
			t.Fatalf("W=1: covered %d after insert %d", w.Len(), i)
		}
		got := reportSet(t, w)
		if len(got) != 1 || got[i] != 1 {
			t.Fatalf("W=1: report %v after insert %d", got, i)
		}
	}
}

// TestWindowLargerThanStream: nothing retires, the report is the whole
// stream, exactly as an unwindowed engine would answer.
func TestWindowLargerThanStream(t *testing.T) {
	w := newCountWindow(t, 1<<20, 0)
	for i := uint64(0); i < 500; i++ {
		w.Insert(i % 7)
	}
	if w.Len() != 500 || w.Total() != 500 {
		t.Fatalf("covered %d total %d, want 500/500", w.Len(), w.Total())
	}
	got := reportSet(t, w)
	for i := uint64(0); i < 7; i++ {
		want := float64(500/7 + map[bool]int{true: 1, false: 0}[i < 500%7])
		if got[i] != want {
			t.Fatalf("item %d: got %g want %g", i, got[i], want)
		}
	}
	if st := w.Stats(); st.Retired != 0 || st.RetiredBuckets != 0 {
		t.Fatalf("nothing should retire: %+v", st)
	}
}

// TestSingleBucket: Buckets=1 degenerates to "keep between W and 2W
// items", the coarsest legal granularity.
func TestSingleBucket(t *testing.T) {
	const W = 10
	w := newCountWindow(t, W, 1)
	for i := uint64(1); i <= 100; i++ {
		w.Insert(i)
		if c := w.Len(); c < min(W, i) || c >= 2*W+1 {
			t.Fatalf("after %d: covered %d outside [min(W,total), 2W]", i, c)
		}
	}
}

// fakeClock is a manually advanced clock for time-mode tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time       { return c.t }
func (c *fakeClock) tick(d time.Duration) { c.t = c.t.Add(d) }

func newTimeWindow(t *testing.T, d time.Duration, buckets int, clk *fakeClock) *Window {
	t.Helper()
	w, err := New(newTestEngine, restoreTestEngine, Options{
		LastDuration: d, Buckets: buckets, Now: clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestTimeWindow drives a LastDuration window with a fake clock: old
// epochs retire as time passes, even without further inserts.
func TestTimeWindow(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	w := newTimeWindow(t, 10*time.Second, 5, clk) // 2s epochs
	// 3 items of id 1 in the first epoch.
	w.Insert(1)
	w.Insert(1)
	w.Insert(1)
	clk.tick(3 * time.Second)
	w.Insert(2) // rotates; id 2 lands in a fresh epoch
	if got := reportSet(t, w); got[1] != 3 || got[2] != 1 {
		t.Fatalf("both epochs live: %v", got)
	}
	// Advance until id 1's epoch has fully aged out; id 2's is still in.
	clk.tick(8 * time.Second) // id 1 last-insert age 11s > 10s; id 2 age 8s
	if got := reportSet(t, w); got[1] != 0 || got[2] != 1 {
		t.Fatalf("epoch 1 should have retired: %v", got)
	}
	if w.Len() != 1 {
		t.Fatalf("covered %d, want 1", w.Len())
	}
	// Idle long enough for everything to age out — retirement must
	// happen on query alone.
	clk.tick(time.Hour)
	if w.Len() != 0 {
		t.Fatalf("idle window should be empty, covered %d", w.Len())
	}
	if got := reportSet(t, w); len(got) != 0 {
		t.Fatalf("idle window should report nothing: %v", got)
	}
	st := w.Stats()
	if st.Retired != 4 || st.Total != 4 {
		t.Fatalf("all mass should be retired: %+v", st)
	}
}

// TestTimeWindowIdleLiveSlides: an empty live bucket slides forward
// instead of sealing empty epochs.
func TestTimeWindowIdleLiveSlides(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	w := newTimeWindow(t, 10*time.Second, 5, clk)
	for i := 0; i < 100; i++ {
		clk.tick(5 * time.Second)
		if w.Len() != 0 {
			t.Fatal("nothing inserted")
		}
	}
	if st := w.Stats(); st.Buckets != 1 {
		t.Fatalf("idle rotation must not accumulate buckets: %+v", st)
	}
}

// TestOptionsValidation covers the constructor error paths.
func TestOptionsValidation(t *testing.T) {
	cases := []Options{
		{},                                     // neither mode
		{LastN: 5, LastDuration: time.Second},  // both modes
		{LastN: 5, Buckets: -1},                // bad buckets
		{LastDuration: -time.Second, LastN: 0}, // negative duration
	}
	for i, opts := range cases {
		if _, err := New(newTestEngine, restoreTestEngine, opts); err == nil {
			t.Fatalf("case %d: expected error for %+v", i, opts)
		}
	}
	if _, err := New(nil, restoreTestEngine, Options{LastN: 5}); err == nil {
		t.Fatal("nil factory must error")
	}
	if _, err := New(newTestEngine, nil, Options{LastN: 5}); err == nil {
		t.Fatal("nil restorer must error")
	}
}

// TestMarshalRoundTrip checkpoints mid-stream, restores, and verifies
// the twin continues identically to the original.
func TestMarshalRoundTrip(t *testing.T) {
	for _, buckets := range []int{1, 3, 8} {
		w := newCountWindow(t, 20, buckets)
		for i := uint64(0); i < 47; i++ {
			w.Insert(i % 9)
		}
		blob, err := w.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		r, err := Restore(blob, newTestEngine, restoreTestEngine, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Len() != w.Len() || r.Total() != w.Total() {
			t.Fatalf("buckets=%d: restored covered/total %d/%d, want %d/%d",
				buckets, r.Len(), r.Total(), w.Len(), w.Total())
		}
		for i := uint64(47); i < 90; i++ { // keep streaming on both
			w.Insert(i % 9)
			r.Insert(i % 9)
		}
		a, b := reportSet(t, w), reportSet(t, r)
		if len(a) != len(b) {
			t.Fatalf("buckets=%d: diverged: %v vs %v", buckets, a, b)
		}
		for k, v := range a {
			if b[k] != v {
				t.Fatalf("buckets=%d: item %d: %g vs %g", buckets, k, v, b[k])
			}
		}
	}
}

// TestMarshalCorrupt: hostile snapshots error, never panic.
func TestMarshalCorrupt(t *testing.T) {
	w := newCountWindow(t, 20, 4)
	for i := uint64(0); i < 50; i++ {
		w.Insert(i)
	}
	blob, err := w.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(nil, newTestEngine, restoreTestEngine, Options{}); err == nil {
		t.Fatal("empty snapshot must error")
	}
	for cut := 0; cut < len(blob); cut += 3 {
		if _, err := Restore(blob[:cut], newTestEngine, restoreTestEngine, Options{}); err == nil {
			t.Fatalf("truncation at %d must error", cut)
		}
	}
	bad := append([]byte{}, blob...)
	bad[0] = 99 // version
	if _, err := Restore(bad, newTestEngine, restoreTestEngine, Options{}); err == nil {
		t.Fatal("bad version must error")
	}
	trailing := append(append([]byte{}, blob...), 0xFF)
	if _, err := Restore(trailing, newTestEngine, restoreTestEngine, Options{}); err == nil {
		t.Fatal("trailing bytes must error")
	}
}

// TestReportUnion: the fallback path sums per-bucket reports.
func TestReportUnion(t *testing.T) {
	w := newCountWindow(t, 10, 5)
	for i := 0; i < 10; i++ {
		w.Insert(7)
	}
	rep := w.ReportUnion()
	if len(rep) != 1 || rep[0].Item != 7 || rep[0].F != float64(w.Len()) {
		t.Fatalf("union report %v, covered %d", rep, w.Len())
	}
}

// TestModelBits sums live buckets only.
func TestModelBits(t *testing.T) {
	w := newCountWindow(t, 10, 5)
	if w.ModelBits() != 0 {
		t.Fatal("empty window should cost nothing under the test engine")
	}
	for i := uint64(0); i < 100; i++ {
		w.Insert(i)
	}
	// Covered ≤ 12 distinct ids at 128 bits each (test accounting),
	// spread over at most B+1 buckets.
	if got := w.ModelBits(); got != int64(w.Len())*128 {
		t.Fatalf("model bits %d, want %d", got, int64(w.Len())*128)
	}
}

// TestArrivalStamps: a fresh window's accounting is usable from the
// stream origin, stamps are monotone, buckets inherit midpoint opening
// stamps so the covered span tracks global arrivals to within one
// batch, and stale stamps never move the high-water mark backward.
func TestArrivalStamps(t *testing.T) {
	const W, B = 10, 5 // cap 2
	w := newCountWindow(t, W, B)
	if _, _, _, ok := w.ArrivalStamps(); !ok {
		t.Fatal("fresh window must report usable (origin) stamps")
	}
	// This window is the whole "container": batches of 4, end stamps
	// 4, 8, …, 40.
	var n uint64
	for batch := 0; batch < 10; batch++ {
		w.ObserveArrivalStamp(uint64(batch+1) * 4)
		for i := 0; i < 4; i++ {
			n++
			w.Insert(n)
		}
	}
	oldest, latest, _, ok := w.ArrivalStamps()
	if !ok || latest != 40 {
		t.Fatalf("ArrivalStamps = (%d, %d, %v), want latest 40", oldest, latest, ok)
	}
	// Every arrival went to this window, so the covered suffix spans
	// exactly Len() global items; midpoint stamps recover that to
	// within one batch.
	span := latest - oldest
	if span < w.Len() || span > w.Len()+4 {
		t.Fatalf("span %d not within one batch of covered %d", span, w.Len())
	}
	w.ObserveArrivalStamp(7) // reordered producer: must not regress
	if _, l, _, _ := w.ArrivalStamps(); l != 40 {
		t.Fatalf("stale stamp moved the high-water mark to %d", l)
	}
}

// TestRestoreV1ResetsStamps: a version-1 snapshot (the PR 3/4 layout,
// no stamp fields) must keep decoding, with share accounting reset —
// ArrivalStamps unusable until fresh stamps flow AND every pre-reset
// bucket has retired, so the extrapolated fold falls back to legacy
// weights instead of inventing spans.
func TestRestoreV1ResetsStamps(t *testing.T) {
	const W, B = 10, 5 // cap 2
	w := newCountWindow(t, W, B)
	w.ObserveArrivalStamp(30)
	for i := uint64(1); i <= 23; i++ {
		w.Insert(i)
	}
	// Re-encode w's state in the v1 layout, from its own fields (this
	// test lives in the package).
	enc := wire.NewWriter()
	enc.U64(snapshotVersionV1)
	enc.U64(w.opts.LastN)
	enc.I64(int64(w.opts.LastDuration))
	enc.U64(uint64(w.opts.Buckets))
	enc.U64(w.total)
	enc.U64(w.retired)
	enc.U64(w.retiredBuckets)
	writeV1 := func(b *bucket, frame []byte) {
		enc.U64(b.count)
		enc.I64(b.start.UnixNano())
		enc.I64(b.last.UnixNano())
		enc.Blob(frame)
	}
	enc.U64(uint64(len(w.sealed) + 1))
	for _, b := range w.sealed {
		writeV1(b, b.frame)
	}
	live, err := w.live.eng.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	writeV1(w.live, live)
	r, err := Restore(enc.Bytes(), newTestEngine, restoreTestEngine, Options{})
	if err != nil {
		t.Fatalf("v1 snapshot must keep decoding: %v", err)
	}
	if r.Len() != w.Len() || r.Total() != w.Total() {
		t.Fatalf("v1 restore covered/total %d/%d, want %d/%d", r.Len(), r.Total(), w.Len(), w.Total())
	}
	if _, _, _, ok := r.ArrivalStamps(); ok {
		t.Fatal("v1 restore must report unusable stamps (share accounting reset)")
	}
	// Stamps re-establish for new buckets, but the accounting only
	// becomes usable once no pre-reset bucket is still covered.
	for i := uint64(24); i <= 26; i++ {
		r.ObserveArrivalStamp(40)
		r.Insert(i)
	}
	if _, _, _, ok := r.ArrivalStamps(); ok {
		t.Fatal("stamps must stay unusable while pre-reset buckets are covered")
	}
	for i := uint64(27); i <= 60; i++ {
		r.ObserveArrivalStamp(40 + i)
		r.Insert(i)
	}
	if oldest, latest, _, ok := r.ArrivalStamps(); !ok || latest != 100 || oldest == 0 {
		t.Fatalf("stamps should be re-established after the reset era retired: (%d, %d, %v)",
			oldest, latest, ok)
	}
	// And the v2 round-trip preserves the accounting exactly.
	blob, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Restore(blob, newTestEngine, restoreTestEngine, Options{})
	if err != nil {
		t.Fatal(err)
	}
	o1, l1, g1, ok1 := r.ArrivalStamps()
	o2, l2, g2, ok2 := r2.ArrivalStamps()
	if o1 != o2 || l1 != l2 || g1 != g2 || ok1 != ok2 {
		t.Fatalf("v2 round-trip changed stamps: (%d,%d,%d,%v) vs (%d,%d,%d,%v)", o1, l1, g1, ok1, o2, l2, g2, ok2)
	}
}

// TestSealedBucketsKeepFrames: a sealed bucket keeps its engine's frame
// and the bits that engine was charged, and no engine; only the open
// bucket holds one. Each frame decodes to an engine holding the
// bucket's count and charged its bits.
func TestSealedBucketsKeepFrames(t *testing.T) {
	w := newCountWindow(t, 20, 4) // cap 5
	for i := uint64(0); i < 47; i++ {
		w.Insert(i % 9)
	}
	if len(w.sealed) < 2 {
		t.Fatalf("only %d sealed buckets", len(w.sealed))
	}
	for i, b := range w.sealed {
		if b.eng != nil || b.frame == nil {
			t.Fatalf("sealed bucket %d holds an engine (%v) or no frame", i, b.eng != nil)
		}
		e, err := restoreTestEngine(b.frame)
		if err != nil {
			t.Fatal(err)
		}
		if e.Len() != b.count || e.ModelBits() != b.bits {
			t.Fatalf("sealed bucket %d: frame holds %d items and %d bits, bucket records %d and %d",
				i, e.Len(), e.ModelBits(), b.count, b.bits)
		}
	}
	if w.live.eng == nil || w.live.frame != nil {
		t.Fatal("the open bucket must hold its engine and no frame")
	}
}

// failingEngine is a testEngine whose frame cannot be written.
type failingEngine struct{ testEngine }

func (e *failingEngine) MarshalBinary() ([]byte, error) { return nil, errors.New("no frame") }

// TestSealFailureKeepsBucketLive: a bucket whose frame cannot be written
// stays the open bucket and keeps ingesting, as on a factory failure,
// rather than sealing without a frame. Report surfaces the failed seal,
// and the union fallback still answers for every item.
func TestSealFailureKeepsBucketLive(t *testing.T) {
	w, err := New(func() (Engine, error) {
		return &failingEngine{testEngine{freq: make(map[uint64]uint64)}}, nil
	}, restoreTestEngine, Options{LastN: 10, Buckets: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 30; i++ {
		w.Insert(i)
	}
	if len(w.sealed) != 0 || w.Len() != 30 {
		t.Fatalf("%d sealed buckets, covered %d; want 0 and all 30 items", len(w.sealed), w.Len())
	}
	if _, err := w.Report(); err == nil {
		t.Fatal("Report hid the failed seal")
	}
	if got := w.ReportUnion(); len(got) != 30 {
		t.Fatalf("union report has %d items, want 30", len(got))
	}
}
