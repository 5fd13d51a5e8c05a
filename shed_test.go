package l1hh

// shed_test.go — the Shedder capability end to end through the front
// door: New builds sharded engines that shed with ErrSaturated inside a
// bounded wait instead of blocking forever, and the clean path stays
// equivalent to InsertBatch.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/shard"
)

// newShedder builds a 1-shard, depth-2 engine through New and hands
// back both the capability view and the inner shard layer (for stalling
// the worker deterministically).
func newShedder(t *testing.T, extra ...Option) (HeavyHitters, Shedder, *shard.Sharded) {
	t.Helper()
	opts := append([]Option{
		WithEps(0.05), WithPhi(0.2), WithStreamLength(100000),
		WithShards(1), WithQueueDepth(2), WithMaxBatch(4),
	}, extra...)
	h, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	sh, ok := h.(Shedder)
	if !ok {
		t.Fatalf("%T from New(WithShards(1)) does not implement Shedder", h)
	}
	concrete, ok := h.(*shardedHH)
	if !ok {
		t.Fatalf("New returned %T, want *shardedHH", h)
	}
	return h, sh, concrete.s
}

// stallWorker parks the single shard worker until release is called.
// The release is also a cleanup, registered after newShedder's Close, so
// a test that fails while the worker is parked frees it before the
// engine closes instead of hanging in Close.
func stallWorker(t *testing.T, s *shard.Sharded) (release func()) {
	t.Helper()
	started := make(chan struct{})
	gate := make(chan struct{})
	release = sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)
	go s.Do(func(int, shard.Engine) {
		close(started)
		<-gate
	})
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("shard worker never picked up the stall op")
	}
	return release
}

func TestShedderSaturationRegression(t *testing.T) {
	h, sh, inner := newShedder(t)
	release := stallWorker(t, inner)

	items := make([]Item, 64)
	for i := range items {
		items[i] = Item(i)
	}
	// The regression this pins: before load shedding, this call hung
	// until the worker drained. Now it must give up within the bound.
	done := make(chan error, 1)
	go func() { done <- sh.InsertBatchBounded(items, 20*time.Millisecond) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrSaturated) {
			t.Fatalf("saturated InsertBatchBounded = %v, want ErrSaturated", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("InsertBatchBounded hung on a saturated engine")
	}

	// After the worker drains, the engine is coherent: the accepted
	// counter matches what the shards applied, and ingest works again.
	release()
	h.(Flusher).Flush()
	if err := sh.InsertBatchBounded(items, 5*time.Second); err != nil {
		t.Fatalf("InsertBatchBounded after drain: %v", err)
	}
	h.(Flusher).Flush()
	if st := h.Stats(); st.Items != h.Len() {
		t.Fatalf("Stats().Items = %d but engines applied %d after a shed", st.Items, h.Len())
	}
}

func TestShedderCleanPathMatchesInsertBatch(t *testing.T) {
	build := func() HeavyHitters {
		h, err := New(WithEps(0.05), WithPhi(0.2), WithStreamLength(100000),
			WithShards(2), WithSeed(7))
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	bounded, plain := build(), build()
	defer bounded.Close()
	defer plain.Close()

	stream := NewZipfStream(3, 50000, 1.3)
	buf := make([]Item, 1000)
	for i := 0; i < 50; i++ {
		for j := range buf {
			buf[j] = stream.Next()
		}
		if err := bounded.(Shedder).InsertBatchBounded(buf, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		if err := plain.InsertBatch(buf); err != nil {
			t.Fatal(err)
		}
	}
	b, p := bounded.Report(), plain.Report()
	if len(b) != len(p) {
		t.Fatalf("bounded ingest reported %d heavy hitters, plain %d", len(b), len(p))
	}
	for i := range b {
		if b[i].Item != p[i].Item || b[i].F != p[i].F {
			t.Fatalf("report[%d]: bounded %+v, plain %+v", i, b[i], p[i])
		}
	}
}

func TestUnshardedEngineHasNoShedder(t *testing.T) {
	h, err := New(WithEps(0.05), WithPhi(0.2), WithStreamLength(10000))
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	// Without WithShards the front door builds a single serial solver:
	// no ingest queues, so there is nothing to shed and the capability
	// must be absent rather than lying.
	if _, ok := h.(Shedder); ok {
		t.Fatalf("%T implements Shedder but has no ingest queues", h)
	}
}
