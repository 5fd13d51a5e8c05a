package shard

import (
	"bytes"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/wire"
)

// fake is an exact-counting engine with a deterministic encoding, so the
// tests exercise the ingest layer without depending on any sketch.
type fake struct {
	counts map[uint64]uint64
	n      uint64
}

func newFake() *fake { return &fake{counts: make(map[uint64]uint64)} }

func (f *fake) Insert(x uint64) { f.counts[x]++; f.n++ }
func (f *fake) InsertBatch(xs []uint64) {
	for _, x := range xs {
		f.Insert(x)
	}
}
func (f *fake) Len() uint64 { return f.n }
func (f *fake) ModelBits() int64 {
	return int64(len(f.counts)) * 128
}

func (f *fake) Report() []core.ItemEstimate {
	out := make([]core.ItemEstimate, 0, len(f.counts))
	for x, c := range f.counts {
		out = append(out, core.ItemEstimate{Item: x, F: float64(c)})
	}
	core.SortEstimates(out)
	return out
}

func (f *fake) MarshalBinary() ([]byte, error) {
	w := wire.NewWriter()
	w.Map(f.counts)
	w.U64(f.n)
	return w.Bytes(), nil
}

func unmarshalFake(blob []byte) (*fake, error) {
	r := wire.NewReader(blob)
	f := &fake{counts: r.Map()}
	f.n = r.U64()
	if r.Err() != nil {
		return nil, r.Err()
	}
	if f.counts == nil {
		f.counts = make(map[uint64]uint64)
	}
	return f, nil
}

func fakeFactory(int, int) (Engine, error) { return newFake(), nil }

func newFakeSharded(t *testing.T, opts Options) *Sharded {
	t.Helper()
	s, err := New(fakeFactory, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPartitionDisjointAndComplete checks that under concurrent
// producers every inserted occurrence lands in exactly the shard that
// ShardOf names, and nothing is lost or duplicated.
func TestPartitionDisjointAndComplete(t *testing.T) {
	const producers, perProducer = 8, 20_000
	s := newFakeSharded(t, Options{Shards: 4, Seed: 11, MaxBatch: 256, QueueDepth: 8})

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			src := rng.New(uint64(100 + p))
			batch := make([]uint64, 0, 500)
			for i := 0; i < perProducer; i++ {
				batch = append(batch, src.Uint64n(5000))
				if len(batch) == cap(batch) {
					if err := s.InsertBatch(batch); err != nil {
						t.Error(err)
						return
					}
					batch = batch[:0]
				}
			}
			if err := s.InsertBatch(batch); err != nil {
				t.Error(err)
			}
		}(p)
	}
	wg.Wait()

	if got := s.Items(); got != producers*perProducer {
		t.Fatalf("Items() = %d, want %d", got, producers*perProducer)
	}
	if got := s.Len(); got != producers*perProducer {
		t.Fatalf("Len() = %d, want %d", got, producers*perProducer)
	}

	lens := make([]uint64, s.Shards())
	s.Do(func(i int, e Engine) {
		f := e.(*fake)
		for x := range f.counts {
			if want := s.ShardOf(x); want != i {
				t.Errorf("item %d landed in shard %d, ShardOf says %d", x, i, want)
			}
		}
		lens[i] = f.n
	})
	var total uint64
	for _, l := range lens {
		total += l
	}
	if total != producers*perProducer {
		t.Fatalf("per-shard sum = %d, want %d", total, producers*perProducer)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// recorder is an engine that keeps every item it is handed, in order:
// the fake counts items but cannot show their order.
type recorder struct{ got []uint64 }

func (r *recorder) Insert(x uint64)             { r.got = append(r.got, x) }
func (r *recorder) InsertBatch(xs []uint64)     { r.got = append(r.got, xs...) }
func (r *recorder) Report() []core.ItemEstimate { return nil }
func (r *recorder) ModelBits() int64            { return 0 }
func (r *recorder) Len() uint64                 { return uint64(len(r.got)) }

// TestPartitionKeepsStreamOrder: one producer's items reach each shard
// exactly as ShardOf assigns them, in stream order, through single
// Inserts (owner only) and InsertBatch calls of 1, MaxBatch−1 and
// Shards×MaxBatch+1 items — a call shorter than a worker's batch, and
// one that spills into a second chunk.
func TestPartitionKeepsStreamOrder(t *testing.T) {
	const shards, maxBatch = 3, 64
	recs := make([]*recorder, shards)
	s, err := New(func(i, _ int) (Engine, error) {
		recs[i] = &recorder{}
		return recs[i], nil
	}, Options{Shards: shards, MaxBatch: maxBatch, QueueDepth: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	src := rng.New(1)
	var stream []uint64
	for _, n := range []int{1, maxBatch - 1, shards*maxBatch + 1, 0, 1, shards*maxBatch + 1, maxBatch - 1} {
		if n == 0 {
			x := src.Uint64()
			if err := s.Insert(x); err != nil {
				t.Fatal(err)
			}
			stream = append(stream, x)
			continue
		}
		batch := make([]uint64, n)
		for j := range batch {
			batch[j] = src.Uint64()
		}
		if err := s.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
		stream = append(stream, batch...)
	}
	s.Flush()
	want := make([][]uint64, shards)
	for _, x := range stream {
		want[s.ShardOf(x)] = append(want[s.ShardOf(x)], x)
	}
	for i, r := range recs {
		if len(r.got) != len(want[i]) {
			t.Fatalf("shard %d holds %d items, ShardOf assigns it %d", i, len(r.got), len(want[i]))
		}
		for j := range want[i] {
			if r.got[j] != want[i][j] {
				t.Fatalf("shard %d: item %d is %#x, want %#x in stream order", i, j, r.got[j], want[i][j])
			}
		}
	}
	if s.Items() != uint64(len(stream)) {
		t.Fatalf("Items() = %d, want %d", s.Items(), len(stream))
	}
}

// TestDispatchKnobBounds: New and Restore refuse a queue depth or a
// batch size out of range before they build an engine or a queue. A
// depth near 2⁴⁰ would ask for a 24 TiB channel buffer, and past about
// 2⁴³ make panics; a huge batch size failed at the first chunk
// allocation.
func TestDispatchKnobBounds(t *testing.T) {
	built := 0
	factory := func(int, int) (Engine, error) {
		built++
		return newFake(), nil
	}
	src := newFakeSharded(t, Options{Shards: 2})
	snap, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	src.Close()
	for _, o := range []Options{
		{QueueDepth: MaxQueueDepth + 1},
		{QueueDepth: 1<<62 + 1},
		{QueueDepth: -1},
		{MaxBatch: MaxBatchLimit + 1},
		{MaxBatch: 1 << 40},
		{MaxBatch: -1},
	} {
		if s, err := New(factory, Options{Shards: 2, QueueDepth: o.QueueDepth, MaxBatch: o.MaxBatch}); err == nil {
			s.Close()
			t.Errorf("New accepted queue depth %d, max batch %d", o.QueueDepth, o.MaxBatch)
		}
		if s, err := Restore(snap, fakeRestoreFactory, o); err == nil {
			s.Close()
			t.Errorf("Restore accepted queue depth %d, max batch %d", o.QueueDepth, o.MaxBatch)
		}
	}
	if built != 0 {
		t.Fatalf("a refused New built %d engines", built)
	}
	s, err := New(factory, Options{Shards: 1, QueueDepth: MaxQueueDepth, MaxBatch: MaxBatchLimit})
	if err != nil {
		t.Fatalf("New refused the bounds themselves: %v", err)
	}
	s.Close()
}

// TestHashRangeMatchesShardOf: the interval of partition hashes a
// worker keeps is exactly the set ShardOf's range reduction maps to its
// shard. The intervals tile the hash space in shard order, and each
// one's first and last hash reduce to its shard; since the reduction is
// monotone in the hash, every hash between reduces there too.
func TestHashRangeMatchesShardOf(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5, 7, 8, 1000, 1 << 20} {
		s := &Sharded{engines: make([]Engine, k)}
		reduce := func(h uint64) int {
			hi, _ := bits.Mul64(h, uint64(k))
			return int(hi)
		}
		next := uint64(0)
		for i := 0; i < k; i++ {
			lo, span := s.hashRange(i)
			if lo != next {
				t.Fatalf("K=%d: shard %d's hashes start at %#x, the previous shard's end at %#x", k, i, lo, next-1)
			}
			if reduce(lo) != i || reduce(lo+span) != i {
				t.Fatalf("K=%d: shard %d's hashes [%#x, %#x] reduce to shards %d and %d", k, i, lo, lo+span, reduce(lo), reduce(lo+span))
			}
			next = lo + span + 1
		}
		if next != 0 {
			t.Fatalf("K=%d: the last shard's hashes end at %#x, not 2⁶⁴ − 1", k, next-1)
		}
	}
}

// TestConcurrentBarriers runs Report/Flush/Len concurrently with ingest;
// under -race this is the memory-safety proof for the barrier protocol.
func TestConcurrentBarriers(t *testing.T) {
	s := newFakeSharded(t, Options{Shards: 3, Seed: 5, MaxBatch: 64, QueueDepth: 4})
	var producers sync.WaitGroup
	for p := 0; p < 4; p++ {
		producers.Add(1)
		go func(p int) {
			defer producers.Done()
			src := rng.New(uint64(p))
			batch := make([]uint64, 100)
			for i := 0; i < 200; i++ {
				for j := range batch {
					batch[j] = src.Uint64n(1000)
				}
				if err := s.InsertBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	stop := make(chan struct{})
	reporterDone := make(chan struct{})
	go func() {
		defer close(reporterDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = s.Report()
			_ = s.Len()
			_ = s.ModelBits()
			s.Flush()
		}
	}()
	producers.Wait()
	close(stop)
	<-reporterDone
	if got, want := s.Len(), uint64(4*200*100); got != want {
		t.Fatalf("Len() = %d, want %d", got, want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRestore checks the checkpoint round trip: identical
// reports, lengths and re-snapshot bytes, and that a restored engine
// keeps ingesting with identical routing.
func TestSnapshotRestore(t *testing.T) {
	restoreFactory := func(i, total int, blob []byte) (Engine, error) {
		return unmarshalFake(blob)
	}
	s := newFakeSharded(t, Options{Shards: 4, Seed: 42})
	src := rng.New(1)
	first := make([]uint64, 50_000)
	for i := range first {
		first[i] = src.Uint64n(2000)
	}
	if err := s.InsertBatch(first); err != nil {
		t.Fatal(err)
	}
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	r, err := Restore(blob, restoreFactory, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Shards() != 4 {
		t.Fatalf("restored %d shards, want 4", r.Shards())
	}
	if got, want := r.Items(), s.Items(); got != want {
		t.Fatalf("restored Items() = %d, want %d", got, want)
	}

	// Same tail into both; reports must agree exactly.
	second := make([]uint64, 50_000)
	for i := range second {
		second[i] = src.Uint64n(2000)
	}
	if err := s.InsertBatch(second); err != nil {
		t.Fatal(err)
	}
	if err := r.InsertBatch(second); err != nil {
		t.Fatal(err)
	}
	a, b := s.Report(), r.Report()
	if len(a) != len(b) {
		t.Fatalf("report lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("reports diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	sa, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa, sb) {
		t.Fatal("snapshots diverge after identical tails")
	}
	s.Close()
	r.Close()
}

// TestDeterminism: same seed, same shard count, same single-producer
// stream ⇒ byte-identical snapshots and identical reports.
func TestDeterminism(t *testing.T) {
	run := func() ([]byte, []core.ItemEstimate) {
		s := newFakeSharded(t, Options{Shards: 5, Seed: 77})
		defer s.Close()
		src := rng.New(9)
		batch := make([]uint64, 1000)
		for i := 0; i < 40; i++ {
			for j := range batch {
				batch[j] = src.Uint64n(300)
			}
			if err := s.InsertBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		blob, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return blob, s.Report()
	}
	b1, r1 := run()
	b2, r2 := run()
	if !bytes.Equal(b1, b2) {
		t.Fatal("snapshot bytes not deterministic")
	}
	if fmt.Sprint(r1) != fmt.Sprint(r2) {
		t.Fatal("reports not deterministic")
	}
}

// TestPartitionSeedChangesRouting guards against the hash silently
// ignoring its seed.
func TestPartitionSeedChangesRouting(t *testing.T) {
	a := newFakeSharded(t, Options{Shards: 8, Seed: 1})
	b := newFakeSharded(t, Options{Shards: 8, Seed: 2})
	defer a.Close()
	defer b.Close()
	diff := 0
	for x := uint64(0); x < 1000; x++ {
		if a.ShardOf(x) != b.ShardOf(x) {
			diff++
		}
	}
	if diff < 500 {
		t.Fatalf("only %d/1000 ids routed differently under a different seed", diff)
	}
}

// TestPartitionBalance: the multiplicative hash must spread both dense
// and strided id spaces roughly evenly.
func TestPartitionBalance(t *testing.T) {
	s := newFakeSharded(t, Options{Shards: 8, Seed: 3})
	defer s.Close()
	for _, stride := range []uint64{1, 4096} {
		counts := make([]int, 8)
		for i := uint64(0); i < 64_000; i++ {
			counts[s.ShardOf(i*stride)]++
		}
		for i, c := range counts {
			if c < 5000 || c > 11_000 {
				t.Fatalf("stride %d: shard %d got %d of 64000 (want ≈8000)", stride, i, c)
			}
		}
	}
}

// TestCloseSemantics: Close drains, is idempotent, fails ingest but
// still answers barrier queries inline.
func TestCloseSemantics(t *testing.T) {
	s := newFakeSharded(t, Options{Shards: 2, Seed: 1, QueueDepth: 128, MaxBatch: 16})
	items := make([]uint64, 10_000)
	for i := range items {
		items[i] = uint64(i)
	}
	if err := s.InsertBatch(items); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second Close must be a no-op, got", err)
	}
	// All queued batches must have been drained before the workers quit.
	if got := s.Len(); got != 10_000 {
		t.Fatalf("Len() after Close = %d, want 10000 (drain lost items)", got)
	}
	if _, err := s.Snapshot(); err != nil {
		t.Fatal("Snapshot after Close:", err)
	}
	if got := len(s.Report()); got != 10_000 {
		t.Fatalf("Report after Close returned %d items, want 10000", got)
	}
	if err := s.InsertBatch(items); err != ErrClosed {
		t.Fatalf("InsertBatch after Close = %v, want ErrClosed", err)
	}
	if err := s.Insert(1); err != ErrClosed {
		t.Fatalf("Insert after Close = %v, want ErrClosed", err)
	}
}

// TestCloseRacingBarrier: Close must not let a concurrent barrier run
// inline while workers are still draining queued batches (regression:
// Close once released its lock before waiting for the workers).
func TestCloseRacingBarrier(t *testing.T) {
	for round := 0; round < 20; round++ {
		s := newFakeSharded(t, Options{Shards: 2, Seed: 1, QueueDepth: 256, MaxBatch: 8})
		items := make([]uint64, 4096)
		for i := range items {
			items[i] = uint64(i)
		}
		if err := s.InsertBatch(items); err != nil {
			t.Fatal(err)
		}
		done := make(chan uint64, 1)
		go func() { done <- s.Len() }()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		<-done // Len raced Close; -race must stay quiet
		if got := s.Len(); got != 4096 {
			t.Fatalf("round %d: Len after Close = %d, want 4096", round, got)
		}
	}
}

// TestRestoreRejectsCorrupt: truncations and garbage fail loudly.
func TestRestoreRejectsCorrupt(t *testing.T) {
	rf := func(i, total int, blob []byte) (Engine, error) { return unmarshalFake(blob) }
	s := newFakeSharded(t, Options{Shards: 2, Seed: 1})
	defer s.Close()
	s.InsertBatch([]uint64{1, 2, 3})
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, len(blob) / 2, len(blob) - 1} {
		if _, err := Restore(blob[:cut], rf, Options{}); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
	if _, err := Restore(append(append([]byte{}, blob...), 0xFF), rf, Options{}); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	bad := wire.NewWriter()
	bad.U64(99) // unknown version
	if _, err := Restore(bad.Bytes(), rf, Options{}); err == nil {
		t.Fatal("unknown version accepted")
	}
}

// TestFactoryErrorPropagates: a failing shard factory aborts New with
// the shard index in the error.
func TestFactoryErrorPropagates(t *testing.T) {
	_, err := New(func(i, total int) (Engine, error) {
		if i == 1 {
			return nil, fmt.Errorf("boom")
		}
		return newFake(), nil
	}, Options{Shards: 3})
	if err == nil {
		t.Fatal("factory error swallowed")
	}
}

// stampFake is a fake engine that additionally records every arrival
// stamp the worker hands it, for the ArrivalObserver contract tests.
type stampFake struct {
	fake
	stamps []uint64
}

func (f *stampFake) ObserveArrivalStamp(stamp uint64) { f.stamps = append(f.stamps, stamp) }

// TestArrivalObserver: every dispatched batch carries a stamp; per
// engine the stamps are non-decreasing under a single producer, each
// stamp covers at least the items the engine has seen so far, and the
// final stamp never exceeds the accepted total.
func TestArrivalObserver(t *testing.T) {
	engines := make([]*stampFake, 2)
	s, err := New(func(i, total int) (Engine, error) {
		engines[i] = &stampFake{fake: fake{counts: make(map[uint64]uint64)}}
		return engines[i], nil
	}, Options{Shards: 2, Seed: 3, MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	const total = 1000
	batch := make([]uint64, 0, 100)
	var sent uint64
	for sent < total {
		batch = batch[:0]
		for i := 0; i < cap(batch) && sent < total; i++ {
			batch = append(batch, sent)
			sent++
		}
		if err := s.InsertBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	var seen uint64
	for i, e := range engines {
		if len(e.stamps) == 0 {
			t.Fatalf("engine %d observed no stamps", i)
		}
		prev := uint64(0)
		for j, st := range e.stamps {
			if st < prev {
				t.Fatalf("engine %d: stamp %d at %d after %d (not monotone)", i, st, j, prev)
			}
			if st > total {
				t.Fatalf("engine %d: stamp %d exceeds accepted total %d", i, st, total)
			}
			prev = st
		}
		if last := e.stamps[len(e.stamps)-1]; last < e.n {
			t.Fatalf("engine %d: final stamp %d below own item count %d", i, last, e.n)
		}
		seen += e.n
	}
	if seen != total {
		t.Fatalf("engines hold %d items, want %d", seen, total)
	}
	if s.Items() != total {
		t.Fatalf("Items = %d, want %d", s.Items(), total)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRestoresItemsCounter: a v2 snapshot carries the accepted
// counter (which can exceed the engines' summed length only under
// concurrent ingest; here they agree), and a hand-built v1 snapshot
// falls back to seeding it from the engines — the share-accounting
// reset path.
func TestSnapshotRestoresItemsCounter(t *testing.T) {
	s := newFakeSharded(t, Options{Shards: 2, Seed: 9})
	for i := uint64(0); i < 500; i++ {
		if err := s.Insert(i % 17); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restore := func(blob []byte) (*Sharded, error) {
		return Restore(blob, func(_, _ int, b []byte) (Engine, error) {
			return unmarshalFake(b)
		}, Options{})
	}
	r, err := restore(snap)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Items() != s.Items() || r.Items() != 500 {
		t.Fatalf("restored Items = %d, want %d", r.Items(), s.Items())
	}

	// Rewrite the same snapshot in the v1 layout (no items field).
	rd := wire.NewReader(snap)
	if v := rd.U64(); v != snapshotVersion {
		t.Fatalf("snapshot version %d, want %d", v, snapshotVersion)
	}
	shards, seed := rd.U64(), rd.U64()
	_ = rd.U64() // items
	v1 := wire.NewWriter()
	v1.U64(snapshotVersionV1)
	v1.U64(shards)
	v1.U64(seed)
	for i := uint64(0); i < shards; i++ {
		v1.Blob(rd.Blob())
	}
	if rd.Err() != nil || !rd.Done() {
		t.Fatal("could not disassemble the snapshot this package produced")
	}
	r1, err := restore(v1.Bytes())
	if err != nil {
		t.Fatalf("v1 snapshot must keep decoding: %v", err)
	}
	defer r1.Close()
	if r1.Items() != r1.Len() || r1.Len() != 500 {
		t.Fatalf("v1 restore Items/Len = %d/%d, want 500/500", r1.Items(), r1.Len())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestIngestHooks checks the stage-timing callbacks: BatchApply fires
// once per dispatched batch, and EnqueueWait fires once per dispatched
// batch and reports a non-zero wait when the queue is saturated.
func TestIngestHooks(t *testing.T) {
	var mu sync.Mutex
	var applies, waits int
	var blocked int
	s := newFakeSharded(t, Options{
		Shards:     2,
		QueueDepth: 1,
		MaxBatch:   4,
		Hooks: Hooks{
			EnqueueWait: func(d time.Duration) {
				mu.Lock()
				waits++
				if d > 0 {
					blocked++
				}
				mu.Unlock()
			},
			BatchApply: func(time.Duration) {
				mu.Lock()
				applies++
				mu.Unlock()
			},
		},
	})
	defer s.Close()

	const n = 10_000
	items := make([]uint64, n)
	for i := range items {
		items[i] = uint64(i)
	}
	if err := s.InsertBatch(items); err != nil {
		t.Fatal(err)
	}
	s.Flush()

	mu.Lock()
	defer mu.Unlock()
	if applies == 0 || waits == 0 {
		t.Fatalf("hooks did not fire: applies=%d waits=%d", applies, waits)
	}
	if applies != waits {
		t.Fatalf("applies=%d != waits=%d: each dispatched batch should hit both hooks", applies, waits)
	}
	// 10k items over 2 shards at MaxBatch 4 is ~1250 batches per shard
	// against a depth-1 queue and a map-insert engine; some sends must
	// have blocked. If this ever flakes the queue is too fast to fill,
	// which would itself be news.
	if blocked == 0 {
		t.Fatal("expected at least one blocking enqueue against a depth-1 queue")
	}
}

// TestZeroHooksPathUnchanged pins the no-hooks configuration (no clock
// reads around a send), by behavior: everything still lands.
func TestZeroHooksPathUnchanged(t *testing.T) {
	s := newFakeSharded(t, Options{Shards: 2, QueueDepth: 1, MaxBatch: 8})
	defer s.Close()
	for i := 0; i < 100; i++ {
		if err := s.Insert(uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Len(); got != 100 {
		t.Fatalf("Len = %d, want 100", got)
	}
}

// TestBarrierOrdersInFlightBatches: ops sent by Do while producers
// are mid-stream observe every batch sent before them — checked by
// comparing the engine's item count at barrier time against a
// producer-side floor recorded before the barrier was issued.
func TestBarrierOrdersInFlightBatches(t *testing.T) {
	s := newFakeSharded(t, Options{Shards: 2, QueueDepth: 2, MaxBatch: 8})
	defer s.Close()

	stop := make(chan struct{})
	var pushed atomic.Uint64
	var prod sync.WaitGroup
	prod.Add(1)
	go func() {
		defer prod.Done()
		buf := make([]uint64, 16)
		for i := uint64(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for j := range buf {
				buf[j] = i*16 + uint64(j)
			}
			if err := s.InsertBatch(buf); err != nil {
				return
			}
			pushed.Add(uint64(len(buf)))
		}
	}()

	for k := 0; k < 50; k++ {
		floor := pushed.Load()
		var total uint64
		var mu sync.Mutex
		s.Do(func(_ int, e Engine) {
			mu.Lock()
			total += e.Len()
			mu.Unlock()
		})
		if total < floor {
			t.Fatalf("barrier %d observed %d items, but %d were fully inserted before it was issued", k, total, floor)
		}
	}
	close(stop)
	prod.Wait()
}

// TestArrivalStampsAcrossHandoff: arrival-stamp monotonicity holds
// across the queue hand-off under the conditions that stress it — a
// one-slot queue (constant backpressure, the producer blocking) and a
// small MaxBatch (every InsertBatch cuts several chunks). Under a
// single producer each engine must see non-decreasing stamps, and the
// final stamp must equal the accepted total.
func TestArrivalStampsAcrossHandoff(t *testing.T) {
	engines := make([]*stampFake, 2)
	s, err := New(func(i, total int) (Engine, error) {
		engines[i] = &stampFake{fake: fake{counts: make(map[uint64]uint64)}}
		return engines[i], nil
	}, Options{Shards: 2, Seed: 9, QueueDepth: 1, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	const calls, per = 200, 64
	buf := make([]uint64, per)
	for c := 0; c < calls; c++ {
		for j := range buf {
			buf[j] = uint64(c*per + j)
		}
		if err := s.InsertBatch(buf); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()
	var last uint64
	for i, e := range engines {
		prev := uint64(0)
		for k, st := range e.stamps {
			if st < prev {
				t.Fatalf("shard %d stamp %d regressed: %d after %d", i, k, st, prev)
			}
			prev = st
		}
		if prev > last {
			last = prev
		}
	}
	if want := uint64(calls * per); last != want {
		t.Fatalf("final stamp = %d, want the accepted total %d", last, want)
	}
	s.Close()
}

// discardEngine is an Engine whose Insert does nothing: it isolates the
// dispatch layer's own allocation behaviour from sketch-table growth.
type discardEngine struct{ n uint64 }

func (d *discardEngine) Insert(uint64)           { d.n++ }
func (d *discardEngine) InsertBatch(xs []uint64) { d.n += uint64(len(xs)) }
func (d *discardEngine) Report() []core.ItemEstimate {
	return nil
}
func (d *discardEngine) ModelBits() int64 { return 0 }
func (d *discardEngine) Len() uint64      { return d.n }

func discardFactory(int, int) (Engine, error) { return &discardEngine{}, nil }

// TestIngestAllocationFree: the steady-state dispatch path — batch
// cut, queue hand-off, worker keep pass, buffer recycle — allocates
// nothing, for both InsertBatch and single-item Insert.
func TestIngestAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation makes sync.Pool drop Puts at random; steady state is not allocation-free under -race")
	}
	// A shallow queue on purpose: the producer can otherwise run far
	// ahead of the workers, and the pool drains not because the path
	// allocates but because every pooled chunk is parked in a deep
	// queue. Backpressure keeps the chunk population bounded so steady
	// state is genuinely allocation-free.
	s, err := New(discardFactory, Options{Shards: 4, QueueDepth: 2, MaxBatch: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	items := make([]uint64, 1024)
	for i := range items {
		items[i] = uint64(i) * 2654435761
	}
	// Warm the pools (chunks, worker buffers, sync.Pool locals).
	for i := 0; i < 16; i++ {
		if err := s.InsertBatch(items); err != nil {
			t.Fatal(err)
		}
	}
	s.Flush()

	if avg := testing.AllocsPerRun(50, func() {
		if err := s.InsertBatch(items); err != nil {
			t.Fatal(err)
		}
	}); avg > 0.5 {
		t.Errorf("InsertBatch(1024 items) allocates %.2f/call in steady state, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if err := s.Insert(7); err != nil {
			t.Fatal(err)
		}
	}); avg > 0.5 {
		t.Errorf("Insert allocates %.2f/call in steady state, want 0", avg)
	}
}

// BenchmarkHandoff prices one trip through a shard queue at the default
// depth: a one-item Insert into a one-shard container whose engine
// discards, so each op is one send and one receive of a pooled one-item
// chunk. The final Flush keeps the worker's share of the last sends
// inside the timing.
func BenchmarkHandoff(b *testing.B) {
	s, err := New(discardFactory, Options{Shards: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Insert(uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	s.Flush()
}

// BenchmarkPartition prices the two halves of the partition per item,
// at two shards over random ids: the producer's copy into a chunk, and
// one worker's keep pass over it (a hash, a range compare and a
// conditional increment per item). DESIGN.md §3 weighs them against a producer-side scatter.
func BenchmarkPartition(b *testing.B) {
	s, err := New(fakeFactory, Options{Shards: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	src := make([]uint64, 8192)
	r := rng.New(1)
	for i := range src {
		src[i] = r.Uint64()
	}
	dst := make([]uint64, len(src))
	lo, span := s.hashRange(1)
	b.Run("copy", func(b *testing.B) {
		for i := 0; i < b.N; i += len(src) {
			dst = append(dst[:0], src...)
		}
	})
	b.Run("keep", func(b *testing.B) {
		for i := 0; i < b.N; i += len(src) {
			s.keep(dst[:len(src)], src, lo, span)
		}
	})
}
