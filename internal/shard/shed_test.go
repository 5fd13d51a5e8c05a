package shard

// shed_test.go — the load-shedding surface: InsertBatchBounded
// returning ErrSaturated instead of blocking, the accepted-items
// rollback, and the clean path that matches InsertBatch.

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// stall parks shard i's worker inside a barrier op until the returned
// release func is called, so the test controls exactly when its queue
// starts draining again; the other workers run the op and go on. The
// release is also a cleanup, so a test that fails while the worker is
// parked still frees it: register the container's Close with t.Cleanup
// before stalling, and the cleanups release first, then close.
func stall(t *testing.T, s *Sharded, i int) (release func()) {
	t.Helper()
	started := make(chan struct{})
	gate := make(chan struct{})
	release = sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release)
	go s.Do(func(shard int, _ Engine) {
		if shard == i {
			close(started)
			<-gate
		}
	})
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never picked up the stall op")
	}
	return release
}

func TestInsertBatchBoundedShedsInsteadOfHanging(t *testing.T) {
	s, err := New(fakeFactory, Options{Shards: 1, QueueDepth: 2, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	release := stall(t, s, 0)

	// 3 batches of 4 against a depth-2 queue behind a stalled worker:
	// two enqueue, the third must shed within the bounded wait.
	items := make([]uint64, 12)
	for i := range items {
		items[i] = uint64(i)
	}
	start := time.Now()
	err = s.InsertBatchBounded(items, 20*time.Millisecond)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("InsertBatchBounded on a saturated shard = %v, want ErrSaturated", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("InsertBatchBounded blocked %v; the whole point is a bounded wait", elapsed)
	}

	// A bounded call with budget left waits on the full queue and goes
	// through once the worker drains. The pause only makes it likely
	// that the call is already waiting when the worker resumes; it must
	// succeed either way.
	waited := make(chan error, 1)
	go func() { waited <- s.InsertBatchBounded(items[:4], 5*time.Second) }()
	time.Sleep(10 * time.Millisecond)
	release()
	if err := <-waited; err != nil {
		t.Fatalf("InsertBatchBounded waiting on a draining queue = %v, want nil", err)
	}

	// The accepted-items counter must cover only what was enqueued:
	// after the worker drains, Items() and the engine's count agree.
	s.Flush()
	if items, applied := s.Items(), s.Len(); items != applied {
		t.Fatalf("Items() = %d but engines applied %d: the saturated remainder was not rolled back", items, applied)
	}

	// Once drained, the same batch goes through and the counters follow.
	if err := s.InsertBatchBounded(items, time.Second); err != nil {
		t.Fatalf("InsertBatchBounded after drain: %v", err)
	}
	s.Flush()
	if items, applied := s.Items(), s.Len(); items != applied {
		t.Fatalf("post-drain Items() = %d, engines applied %d", items, applied)
	}
}

// TestInsertBatchBoundedShedsPartwayAcrossShards: a chunk goes to
// every queue in turn, so a bounded call can time out after reaching
// some queues of a chunk. With the middle of three workers stalled
// behind a two-slot queue, the third chunk reaches queue 0 and times
// out on queue 1: the call gives back the references of queues 1 and
// 2 and rolls Items back by the items they own. Once the worker
// drains, Items must equal what the engines applied, and a retry must
// deliver in full. Three rounds recycle the chunks through the pool;
// under -race a chunk released twice shows as a panic in release or as
// a race on its refill.
func TestInsertBatchBoundedShedsPartwayAcrossShards(t *testing.T) {
	s, err := New(fakeFactory, Options{Shards: 3, QueueDepth: 2, MaxBatch: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	items := make([]uint64, 4*s.chunkLen) // four chunks
	for i := range items {
		items[i] = uint64(i)
	}
	var ownedByQueue0 uint64
	for _, x := range items[2*s.chunkLen : 3*s.chunkLen] {
		if s.ShardOf(x) == 0 {
			ownedByQueue0++
		}
	}
	for round := 0; round < 3; round++ {
		before := s.Items()
		release := stall(t, s, 1)
		if err := s.InsertBatchBounded(items, 500*time.Millisecond); !errors.Is(err, ErrSaturated) {
			t.Fatalf("round %d: InsertBatchBounded behind a stalled worker = %v, want ErrSaturated", round, err)
		}
		if got, want := s.Items()-before, 2*uint64(s.chunkLen)+ownedByQueue0; got != want {
			t.Fatalf("round %d: a saturated call kept %d items accepted, want two chunks and queue 0's part of the third, %d", round, got, want)
		}
		release()
		s.Flush()
		if items, applied := s.Items(), s.Len(); items != applied {
			t.Fatalf("round %d: Items() = %d but engines applied %d", round, items, applied)
		}
		if err := s.InsertBatchBounded(items, 5*time.Second); err != nil {
			t.Fatalf("round %d: retry after the drain: %v", round, err)
		}
		s.Flush()
		if items, applied := s.Items(), s.Len(); items != applied {
			t.Fatalf("round %d: after the retry Items() = %d, engines applied %d", round, items, applied)
		}
	}
}

// TestInsertBatchBoundedCleanPathMatchesInsertBatch: on a container
// with room a bounded call delivers exactly what InsertBatch does,
// whatever its wait — a zero or negative wait too, because the send is
// tried once before the deadline is consulted.
func TestInsertBatchBoundedCleanPathMatchesInsertBatch(t *testing.T) {
	items := make([]uint64, 10000)
	for i := range items {
		items[i] = uint64(i % 97)
	}
	plain, err := New(fakeFactory, Options{Shards: 4, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if err := plain.InsertBatch(items); err != nil {
		t.Fatal(err)
	}
	want := plain.Report()
	for _, wait := range []time.Duration{time.Second, 0, -time.Second} {
		bounded, err := New(fakeFactory, Options{Shards: 4, QueueDepth: 8})
		if err != nil {
			t.Fatal(err)
		}
		if err := bounded.InsertBatchBounded(items, wait); err != nil {
			t.Fatalf("wait %v: InsertBatchBounded with room = %v, want nil", wait, err)
		}
		if b := bounded.Report(); len(b) != len(want) {
			t.Fatalf("wait %v: bounded and plain ingest disagree: %d vs %d reported items", wait, len(b), len(want))
		}
		if bounded.Items() != plain.Items() {
			t.Fatalf("wait %v: Items(): bounded %d, plain %d", wait, bounded.Items(), plain.Items())
		}
		bounded.Close()
	}
}
