package shard

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/core"
)

// Compile-time checks that msgSize (which sizes the ringSlot padding)
// tracks the real msg layout: either subtraction underflows the
// unsigned constant if the two ever diverge.
const (
	_ = msgSize - unsafe.Sizeof(msg{})
	_ = unsafe.Sizeof(msg{}) - msgSize
)

// mkBuf boxes a one-value chunk for direct ring tests.
func mkBuf(v uint64) *chunk {
	return &chunk{items: []uint64{v}}
}

// TestRingFIFO: a single producer's entries pop in push order, batches
// and ops interleaved — the property barrier semantics stand on.
func TestRingFIFO(t *testing.T) {
	r := newRing(4)
	const n = 10_000
	got := make([]uint64, 0, n)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			m, ok := r.pop()
			if !ok {
				return
			}
			if m.op != nil {
				m.op(nil)
				continue
			}
			got = append(got, m.buf.items[0])
		}
	}()
	for i := uint64(0); i < n; i++ {
		if ok, _ := r.push(msg{buf: mkBuf(i), stamp: i}); !ok {
			t.Fatal("push failed on an open ring")
		}
	}
	// An op pushed after every batch must observe all of them (FIFO).
	var sawAll atomic.Bool
	done := make(chan struct{})
	r.push(msg{op: func(Engine) {
		sawAll.Store(len(got) == n)
		close(done)
	}})
	<-done
	if !sawAll.Load() {
		t.Fatalf("op ran before all prior entries: saw %d of %d", len(got), n)
	}
	r.close()
	wg.Wait()
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("out of order at %d: got %d", i, v)
		}
	}
}

// TestRingMultiProducerStress: many producers race pushes against one
// consumer; nothing is lost, duplicated, or torn. Run under -race in CI.
func TestRingMultiProducerStress(t *testing.T) {
	r := newRing(8)
	const producers = 8
	const perProducer = 5_000
	seen := make(map[uint64]int, producers*perProducer)
	var consumer sync.WaitGroup
	consumer.Add(1)
	go func() {
		defer consumer.Done()
		for {
			m, ok := r.pop()
			if !ok {
				return
			}
			seen[m.buf.items[0]]++
		}
	}()
	var prod sync.WaitGroup
	prod.Add(producers)
	for p := 0; p < producers; p++ {
		p := p
		go func() {
			defer prod.Done()
			for i := 0; i < perProducer; i++ {
				v := uint64(p)*perProducer + uint64(i)
				if ok, _ := r.push(msg{buf: mkBuf(v)}); !ok {
					t.Error("push failed on an open ring")
					return
				}
			}
		}()
	}
	prod.Wait()
	r.close()
	consumer.Wait()
	if len(seen) != producers*perProducer {
		t.Fatalf("lost entries: %d distinct of %d pushed", len(seen), producers*perProducer)
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("entry %d delivered %d times", v, c)
		}
	}
}

// TestRingBackpressure: a full ring rejects tryPush, blocks push, and
// unblocks exactly when the consumer frees a slot.
func TestRingBackpressure(t *testing.T) {
	r := newRing(2)
	if r.capacity() != 2 {
		t.Fatalf("capacity = %d, want 2", r.capacity())
	}
	for i := uint64(0); i < 2; i++ {
		if !r.tryPush(msg{buf: mkBuf(i)}) {
			t.Fatalf("tryPush %d failed below capacity", i)
		}
	}
	if r.tryPush(msg{buf: mkBuf(99)}) {
		t.Fatal("tryPush succeeded on a full ring")
	}
	if r.len() != 2 {
		t.Fatalf("len = %d, want 2", r.len())
	}
	unblocked := make(chan bool, 1)
	go func() {
		ok, blocked := r.push(msg{buf: mkBuf(2)})
		unblocked <- ok && blocked
	}()
	// Wait until the producer has genuinely parked on the full ring
	// (not merely been spawned) before freeing a slot, so the test
	// asserts the block-then-wake path rather than a lucky fast path.
	for r.producerWaiters.Load() == 0 {
		runtime.Gosched()
	}
	select {
	case <-unblocked:
		t.Fatal("push returned while the ring was still full")
	default:
	}
	if m, ok := r.pop(); !ok || m.buf.items[0] != 0 {
		t.Fatalf("pop = %v, %v; want entry 0", m, ok)
	}
	if !<-unblocked {
		t.Fatal("blocked push did not complete (or did not report blocking) after a slot freed")
	}
	r.close()
	if ok, _ := r.push(msg{buf: mkBuf(3)}); ok {
		t.Fatal("push succeeded on a closed ring")
	}
	// Drain: both remaining entries then clean shutdown.
	if m, ok := r.pop(); !ok || m.buf.items[0] != 1 {
		t.Fatal("close lost a queued entry")
	}
	if m, ok := r.pop(); !ok || m.buf.items[0] != 2 {
		t.Fatal("close lost the blocked push's entry")
	}
	if _, ok := r.pop(); ok {
		t.Fatal("pop reported an entry after drain on a closed ring")
	}
}

// TestRingCapacityRounding: capacities round up to powers of two with a
// floor of 2 (a 1-slot sequence ring cannot distinguish full from
// empty-again).
func TestRingCapacityRounding(t *testing.T) {
	for _, tc := range []struct{ want, capacity int }{
		{0, 2}, {1, 2}, {2, 2}, {3, 4}, {64, 64}, {65, 128},
	} {
		if got := newRing(tc.want).capacity(); got != tc.capacity {
			t.Errorf("newRing(%d).capacity() = %d, want %d", tc.want, got, tc.capacity)
		}
	}
}

// TestBarrierOrdersInFlightBatches: ops pushed by Do while producers
// are mid-stream observe every batch pushed before them — checked by
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

// TestArrivalStampsAcrossRingHandoff: arrival-stamp monotonicity
// survives the ring rewrite under the conditions that stress it — a
// tiny ring (constant backpressure, producer parking) and a small
// MaxBatch (every InsertBatch cuts several batches per shard). Under a
// single producer each engine must see non-decreasing stamps, and the
// final stamp must equal the accepted total.
func TestArrivalStampsAcrossRingHandoff(t *testing.T) {
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

// TestIngestAllocationFree: the steady-state dispatch path — partition,
// batch cut, ring handoff, worker drain, buffer recycle — allocates
// nothing, for both InsertBatch and single-item Insert.
func TestIngestAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation makes sync.Pool drop Puts at random; steady state is not allocation-free under -race")
	}
	// A shallow ring on purpose: on a single processor the producer can
	// otherwise run far ahead of the workers, and the pool drains not
	// because the path allocates but because every pooled buffer is
	// parked in a deep ring. Backpressure keeps the buffer population
	// bounded so steady state is genuinely allocation-free.
	s, err := New(func(int, int) (Engine, error) { return &discardEngine{}, nil },
		Options{Shards: 4, QueueDepth: 2, MaxBatch: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	items := make([]uint64, 1024)
	for i := range items {
		items[i] = uint64(i) * 2654435761
	}
	// Warm the pools (batch buffers, dispatch scratch, sync.Pool locals).
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

// BenchmarkRingVsChannel pins the dispatch hand-off cost: one producer
// pushing pre-built batch messages to one draining consumer, over the
// ring and over the buffered channel it replaced, at the dispatch
// layer's default depth.
func BenchmarkRingVsChannel(b *testing.B) {
	buf := mkBuf(42)
	b.Run("ring", func(b *testing.B) {
		r := newRing(64)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if _, ok := r.pop(); !ok {
					return
				}
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.push(msg{buf: buf, stamp: uint64(i)})
		}
		r.close()
		wg.Wait()
	})
	b.Run("channel", func(b *testing.B) {
		ch := make(chan msg, 64)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range ch {
			}
		}()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ch <- msg{buf: buf, stamp: uint64(i)}
		}
		close(ch)
		wg.Wait()
	})
}
