package shard

// shed_test.go — the load-shedding surface: bounded-wait ring pushes,
// InsertBatchBounded returning ErrSaturated instead of blocking, the
// accepted-items rollback, and the SpareCapacity probe.

import (
	"errors"
	"testing"
	"time"
)

func TestRingPushWaitTimesOutWhenFull(t *testing.T) {
	r := newRing(2)
	for i := 0; r.tryPush(msg{}); i++ {
		if i > 64 {
			t.Fatal("ring never filled")
		}
	}
	start := time.Now()
	ok, timedOut := r.pushWait(msg{}, start.Add(20*time.Millisecond))
	if ok || !timedOut {
		t.Fatalf("pushWait on a full ring = (ok=%v, timedOut=%v), want (false, true)", ok, timedOut)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("pushWait held the producer %v past a 20ms deadline", elapsed)
	}
}

func TestRingPushWaitSucceedsWhenDrained(t *testing.T) {
	r := newRing(2)
	for r.tryPush(msg{}) {
	}
	// Drain one slot from another goroutine while the producer waits.
	go func() {
		time.Sleep(5 * time.Millisecond)
		if _, ok := r.pop(); !ok {
			panic("pop from a full ring failed")
		}
	}()
	ok, timedOut := r.pushWait(msg{}, time.Now().Add(5*time.Second))
	if !ok || timedOut {
		t.Fatalf("pushWait after a drain = (ok=%v, timedOut=%v), want (true, false)", ok, timedOut)
	}
}

func TestRingPushWaitExpiredDeadlineStillTriesOnce(t *testing.T) {
	r := newRing(2)
	ok, _ := r.pushWait(msg{}, time.Now().Add(-time.Second))
	if !ok {
		t.Fatal("pushWait with room must succeed even with an expired deadline")
	}
}

// stall parks shard i's worker inside a barrier op until the returned
// release func is called, so the test controls exactly when its ring
// starts draining again; the other workers run the op and go on.
func stall(t *testing.T, s *Sharded, i int) (release func()) {
	t.Helper()
	started := make(chan struct{})
	gate := make(chan struct{})
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
	return func() { close(gate) }
}

func TestInsertBatchBoundedShedsInsteadOfHanging(t *testing.T) {
	s, err := New(fakeFactory, Options{Shards: 1, QueueDepth: 2, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	release := stall(t, s, 0)

	// 3 batches of 4 against a depth-2 ring behind a stalled worker:
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

	// The accepted-items counter must cover only what was enqueued:
	// after the worker drains, Items() and the engine's count agree.
	release()
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
// every ring in turn, so a bounded call can time out after reaching
// some rings of a chunk. With the middle of three workers stalled
// behind a two-slot ring, the third chunk reaches ring 0 and times out
// on ring 1: the call gives back the references of rings 1 and 2 and
// rolls Items back by the items they own. Once the worker drains,
// Items must equal what the engines applied, and a retry must deliver
// in full. Three rounds recycle the chunks through the pool; under
// -race a chunk released twice shows as a panic in release or as a
// race on its refill.
func TestInsertBatchBoundedShedsPartwayAcrossShards(t *testing.T) {
	s, err := New(fakeFactory, Options{Shards: 3, QueueDepth: 2, MaxBatch: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	items := make([]uint64, 4*s.chunkLen) // four chunks
	for i := range items {
		items[i] = uint64(i)
	}
	var ownedByRing0 uint64
	for _, x := range items[2*s.chunkLen : 3*s.chunkLen] {
		if s.ShardOf(x) == 0 {
			ownedByRing0++
		}
	}
	for round := 0; round < 3; round++ {
		before := s.Items()
		release := stall(t, s, 1)
		if err := s.InsertBatchBounded(items, 500*time.Millisecond); !errors.Is(err, ErrSaturated) {
			t.Fatalf("round %d: InsertBatchBounded behind a stalled worker = %v, want ErrSaturated", round, err)
		}
		if got, want := s.Items()-before, 2*uint64(s.chunkLen)+ownedByRing0; got != want {
			t.Fatalf("round %d: a saturated call kept %d items accepted, want two chunks and ring 0's part of the third, %d", round, got, want)
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

func TestInsertBatchBoundedCleanPathMatchesInsertBatch(t *testing.T) {
	bounded, err := New(fakeFactory, Options{Shards: 4, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer bounded.Close()
	plain, err := New(fakeFactory, Options{Shards: 4, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()

	items := make([]uint64, 10000)
	for i := range items {
		items[i] = uint64(i % 97)
	}
	if err := bounded.InsertBatchBounded(items, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := plain.InsertBatch(items); err != nil {
		t.Fatal(err)
	}
	bounded.Flush()
	plain.Flush()
	if b, p := bounded.Report(), plain.Report(); len(b) != len(p) {
		t.Fatalf("bounded and plain ingest disagree: %d vs %d reported items", len(b), len(p))
	}
	if bounded.Items() != plain.Items() {
		t.Fatalf("Items(): bounded %d, plain %d", bounded.Items(), plain.Items())
	}
}

func TestSpareCapacity(t *testing.T) {
	s, err := New(fakeFactory, Options{Shards: 1, QueueDepth: 4, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if free := s.SpareCapacity(); free < 1 {
		t.Fatalf("idle SpareCapacity = %d, want the full ring", free)
	}
	release := stall(t, s, 0)
	defer release()
	// Fill the ring behind the stalled worker; capacity must hit zero.
	items := make([]uint64, 64)
	for s.SpareCapacity() > 0 {
		if err := s.InsertBatchBounded(items, 10*time.Millisecond); err != nil {
			break // saturated: ring is full, which is what we're driving at
		}
	}
	if free := s.SpareCapacity(); free != 0 {
		t.Fatalf("saturated SpareCapacity = %d, want 0", free)
	}
}
