// Package shard is the concurrent ingest engine: it hash-partitions the
// item universe across N independent single-threaded sketches, each owned
// by a dedicated worker goroutine fed through a buffered channel of
// chunks, and coordinates barrier operations — report, flush, snapshot —
// against all of them.
//
// The partition is disjoint: every id is routed by a fixed seeded hash to
// exactly one shard, so each item's full frequency lands in one sketch and
// per-shard reports union cleanly. The layer is generic over the Engine
// interface; the threshold semantics of the merged report (what counts as
// heavy against the *global* stream length) belong to the caller — see the
// root package's sharded solver (sharded.go), and DESIGN.md §3 for the
// error analysis and §11 for what the queue must guarantee.
//
// The partition runs on the workers. InsertBatch copies a producer's
// items into pooled chunks and sends each chunk, reference-counted, to
// every worker's queue; each worker hashes the chunk, keeps the items
// its shard owns in stream order and hands them to its engine's batch
// path. An item thus costs the producer one copy and each worker one
// hash — K hashes in all on K shards, which DESIGN.md §3 weighs against
// a producer-side scatter.
//
// Concurrency model: any number of goroutines may call Insert/InsertBatch
// concurrently; barrier operations (Report, Len, ModelBits, Snapshot, Do,
// Flush) may run concurrently with ingest and observe some linearization
// of it. Engines themselves are only ever touched by their owning worker
// goroutine, so they need no locking. After Close, the workers have
// exited and barrier operations run inline on the caller's goroutine.
//
// The ingest path is allocation-free in steady state: chunks and the
// workers' own-item buffers come from one pool.
package shard

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/rng"
)

// Engine is the per-shard sketch contract. The root package's serial and
// windowed solvers and the exact baseline all satisfy it.
type Engine interface {
	Insert(x uint64)
	// InsertBatch inserts items in order, as one Insert per item would;
	// the shard worker hands it each run of its own items. The slice is
	// not retained.
	InsertBatch(items []uint64)
	Report() []core.ItemEstimate
	ModelBits() int64
	Len() uint64
}

// Marshaler is the optional checkpointing contract; Snapshot requires
// every engine to implement it.
type Marshaler interface {
	MarshalBinary() ([]byte, error)
}

// ArrivalObserver is the optional engine contract for global-arrival
// accounting. Engines that implement it receive, before each batch of
// their own items is inserted, a monotone stamp: the container-wide
// count of items accepted up to the end of the chunk the batch came
// from. A shard engine that records the stamp alongside its own item
// count can measure its share of recent global traffic — what the
// rate-extrapolated count-window report fold needs (DESIGN.md §8) —
// without any per-item work on the insert path. The stamp is
// chunk-granular and, under concurrent producers, may arrive slightly
// out of order; observers should treat it as a monotone high-water
// mark.
type ArrivalObserver interface {
	// ObserveArrivalStamp records the global accepted-items stamp
	// carried by the batch about to be inserted.
	ObserveArrivalStamp(stamp uint64)
}

// Hooks carries optional stage-timing callbacks for the ingest path.
// Both fields follow the ArrivalObserver cost discipline: a nil hook is
// one predictable branch on the hot path, and a non-nil hook is invoked
// from hot loops, so implementations must be cheap, lock-free and
// allocation-free (an atomic histogram observe, not a log line).
type Hooks struct {
	// EnqueueWait observes, once per chunk sent to a shard queue, how
	// long the producer blocked waiting for space in that full queue.
	// The fast path — queue had room — reports 0 without reading the
	// clock, so an uncongested pipeline pays no timer cost.
	EnqueueWait func(d time.Duration)
	// BatchApply observes, once per chunk a worker receives, how long the
	// worker spent on it: hashing the chunk to keep its own items, and
	// inserting them into its engine. Called from the worker goroutine.
	BatchApply func(d time.Duration)
}

// Factory builds the engine for one shard. It is called once per shard,
// serially and in shard order, so seed derivation inside the factory is
// deterministic.
type Factory func(shard, total int) (Engine, error)

// ErrClosed is returned by ingest calls after Close.
var ErrClosed = errors.New("shard: engine closed")

// ErrSaturated is returned by InsertBatchBounded when a shard queue
// stayed full for the whole bounded wait: the ingest rate exceeds what
// the shard workers drain, and the caller should shed load (back off
// and retry) instead of queueing more. Items the reached queues own HAVE
// been enqueued — delivery under shedding is at-least-once, not atomic
// (DESIGN.md §12).
var ErrSaturated = errors.New("shard: ingest queues saturated")

// Bounds on the dispatch knobs. A queue slot holds one 24-byte msg, so a
// queue of MaxQueueDepth slots is 1.5 MiB; a chunk of MaxBatchLimit
// items is 8 MiB. Larger requests are refused, not rounded.
const (
	MaxQueueDepth = 1 << 16
	MaxBatchLimit = 1 << 20
)

// Options configures the ingest layer (not the sketches).
type Options struct {
	// Shards is the partition width; 0 defaults to GOMAXPROCS.
	Shards int
	// QueueDepth is the exact per-shard queue capacity in chunks; 0
	// defaults to 64, and at most MaxQueueDepth. Sends block when a
	// queue is full, which is the backpressure mechanism.
	QueueDepth int
	// MaxBatch sizes the dispatch chunk: InsertBatch cuts its items
	// into chunks of Shards × MaxBatch (at most MaxBatchLimit), so each
	// worker's batch holds about MaxBatch items on balanced traffic.
	// 0 defaults to 4096, and at most MaxBatchLimit. Larger batches
	// amortize the queue hand-off further at the cost of latency before
	// a barrier can observe the items.
	MaxBatch int
	// Seed seeds the partition hash. The same seed must be used to
	// restore a snapshot (Snapshot records it).
	Seed uint64
	// Hooks are optional stage-timing callbacks; the zero value
	// disables them at nil-check cost.
	Hooks Hooks
}

// fill applies the defaults and refuses knobs out of range.
func (o *Options) fill() error {
	if o.Shards == 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 64
	}
	if o.MaxBatch == 0 {
		o.MaxBatch = 4096
	}
	switch {
	case o.Shards < 1:
		return fmt.Errorf("shard: invalid shard count %d", o.Shards)
	case o.QueueDepth < 1 || o.QueueDepth > MaxQueueDepth:
		return fmt.Errorf("shard: queue depth %d out of [1, %d]", o.QueueDepth, MaxQueueDepth)
	case o.MaxBatch < 1 || o.MaxBatch > MaxBatchLimit:
		return fmt.Errorf("shard: max batch %d out of [1, %d]", o.MaxBatch, MaxBatchLimit)
	}
	return nil
}

// chunk is the unit of ingest: a pooled copy of up to chunkLen of one
// producer's items, read by every worker it is sent to. refs counts
// the workers yet to release it; the last release returns it to the
// pool. A worker borrows a chunk from the same pool as the buffer it
// keeps its own items in.
type chunk struct {
	items []uint64
	refs  atomic.Int32
}

// msg is the unit of work on a shard queue: either a chunk or a barrier
// op. Channel FIFO order is what makes a barrier observe every chunk
// enqueued before it. A chunk carries the global arrival stamp of its
// last item for engines that observe it (ArrivalObserver).
type msg struct {
	buf   *chunk
	stamp uint64
	op    func(e Engine)
}

// Sharded fans a stream out to per-shard engines.
type Sharded struct {
	opts    Options
	engines []Engine
	// queues[i] feeds worker i. Its capacity, Options.QueueDepth, is
	// the backpressure bound: how many chunks a producer may run ahead
	// of a worker before it blocks.
	queues  []chan msg
	workers sync.WaitGroup

	// mix is the partition-hash key, derived from Options.Seed; forced
	// odd so x*mix is a bijection on uint64.
	mix uint64

	chunkLen int       // items per chunk: Shards × MaxBatch, at most MaxBatchLimit
	chunks   sync.Pool // *chunk, cap(items) == chunkLen
	items    atomic.Uint64

	// mu guards the closed transition: ingest and barriers hold it for
	// read, Close holds it for write so nothing sends on a closed
	// channel.
	mu     sync.RWMutex
	closed bool
}

// New builds engines with factory and starts one worker per shard. It
// refuses options out of range before building anything.
func New(factory Factory, opts Options) (*Sharded, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	s := &Sharded{
		opts:     opts,
		mix:      rng.New(opts.Seed).Uint64() | 1,
		chunkLen: MaxBatchLimit,
	}
	if opts.MaxBatch <= MaxBatchLimit/opts.Shards {
		s.chunkLen = opts.Shards * opts.MaxBatch
	}
	s.chunks.New = func() any {
		return &chunk{items: make([]uint64, 0, s.chunkLen)}
	}
	s.engines = make([]Engine, opts.Shards)
	s.queues = make([]chan msg, opts.Shards)
	for i := range s.engines {
		e, err := factory(i, opts.Shards)
		if err != nil {
			return nil, fmt.Errorf("shard %d/%d: %w", i, opts.Shards, err)
		}
		s.engines[i] = e
		s.queues[i] = make(chan msg, opts.QueueDepth)
	}
	s.workers.Add(opts.Shards)
	for i := range s.engines {
		go s.worker(i)
	}
	return s, nil
}

// worker owns engine i: it drains its queue, running barrier ops and
// applying chunks in arrival order, until Close closes the queue. For
// each chunk it keeps its own items in a borrowed buffer, releases the
// chunk, and — when it kept any — observes the chunk's stamp and hands
// the items to the engine's batch path. The ArrivalObserver assertion
// happens once, outside the loop.
func (s *Sharded) worker(i int) {
	defer s.workers.Done()
	e := s.engines[i]
	ao, _ := e.(ArrivalObserver)
	ba := s.opts.Hooks.BatchApply
	lo, span := s.hashRange(i)
	for m := range s.queues[i] {
		if m.op != nil {
			m.op(e)
			continue
		}
		var start time.Time
		if ba != nil {
			start = time.Now()
		}
		own := s.chunks.Get().(*chunk)
		mine := s.keep(own.items[:len(m.buf.items)], m.buf.items, lo, span)
		s.release(m.buf, 1)
		if len(mine) > 0 {
			if ao != nil {
				ao.ObserveArrivalStamp(m.stamp)
			}
			e.InsertBatch(mine)
		}
		s.chunks.Put(own)
		if ba != nil {
			ba(time.Since(start))
		}
	}
}

// partitionHash is the hash ShardOf range-reduces: a multiplicative
// hash under the seeded key mix.
func partitionHash(x, mix uint64) uint64 {
	h := x * mix
	return h ^ h>>29 // mixes the low input bits into the product's high bits
}

// ShardOf returns the shard that owns id x: the high bits of the
// partition hash times the shard count, a range reduction without bias
// toward low shards. It is a pure function of (x, Options.Seed) for a
// fixed shard count.
func (s *Sharded) ShardOf(x uint64) int {
	hi, _ := bits.Mul64(partitionHash(x, s.mix), uint64(len(s.engines)))
	return int(hi)
}

// hashRange returns the partition hashes shard i owns as an interval:
// ShardOf(x) == i exactly when partitionHash(x) − lo ≤ span in
// unsigned arithmetic. Shard i's hashes start at ⌈i·2⁶⁴/K⌉, the least
// h whose range reduction ⌊h·K/2⁶⁴⌋ is i, and the last shard's run to
// 2⁶⁴ − 1. The workers test membership with one subtraction and one
// compare instead of the reduction's 128-bit multiply.
func (s *Sharded) hashRange(i int) (lo, span uint64) {
	k := uint64(len(s.engines))
	first := func(i uint64) uint64 {
		q, r := bits.Div64(i, 0, k)
		if r != 0 {
			q++
		}
		return q
	}
	lo = first(uint64(i))
	if i == len(s.engines)-1 {
		return lo, ^lo
	}
	return lo, first(uint64(i)+1) - lo - 1
}

// keep copies into dst, in order, the items of src whose partition
// hash lies in [lo, lo+span] (hashRange), and returns them; dst must
// hold len(src) items. Every item is written and the write position
// advances only for an owned one: the compiler turns that conditional
// increment into a conditional move, so the loop has no data-dependent
// branch to mispredict.
func (s *Sharded) keep(dst, src []uint64, lo, span uint64) []uint64 {
	mix := s.mix
	n := 0
	for _, x := range src {
		dst[n] = x
		if partitionHash(x, mix)-lo <= span {
			n++
		}
	}
	return dst[:n]
}

// release gives back n references to c, returning it to the pool once
// none remain. A count below zero means a reference was given back
// twice, so the chunk may already be refilled under a reader: that is a
// bug in this package, and it panics rather than corrupt a stream.
func (s *Sharded) release(c *chunk, n int32) {
	switch r := c.refs.Add(-n); {
	case r == 0:
		s.chunks.Put(c)
	case r < 0:
		panic("shard: chunk released twice")
	}
}

// Shards returns the partition width.
func (s *Sharded) Shards() int { return len(s.engines) }

// Insert routes a single item to its owner only: a one-item chunk with
// one reference, so even the slow path allocates nothing in steady
// state. High-throughput producers should still call InsertBatch — the
// queue hand-off amortizes over the chunk.
func (s *Sharded) Insert(x uint64) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	stamp := s.items.Add(1)
	c := s.chunks.Get().(*chunk)
	c.items = append(c.items[:0], x)
	c.refs.Store(1)
	s.send(s.ShardOf(x), msg{buf: c, stamp: stamp}, time.Time{})
	return nil
}

// InsertBatch enqueues items for the shards that own them: it copies
// them into chunks of up to Shards × MaxBatch items and sends each
// chunk to every shard queue, where each worker keeps its own items in
// stream order. Safe for any number of concurrent callers; blocks when
// a queue is full (backpressure). The input slice is not retained.
//
// The accepted-items counter reserves the whole call's range up front;
// each chunk carries, as its arrival stamp for ArrivalObserver
// engines, the global position of its last item. Stamps are therefore
// accurate to one chunk even when a single call delivers millions of
// items, at the cost of one add per call and no per-item work.
func (s *Sharded) InsertBatch(items []uint64) error {
	return s.dispatch(items, time.Time{})
}

// InsertBatchBounded is InsertBatch with load shedding instead of
// unbounded backpressure: when a shard queue stays full past wait, it
// returns ErrSaturated rather than blocking until space frees up. The
// wait budget covers the whole call, not each enqueue.
//
// Shedding is not atomic: the chunks sent before the full queue was
// hit, and the items of the saturating chunk that the queues it reached
// own, have been enqueued and will be applied. The accepted-items
// counter is rolled back for the rest, so Items still tracks what the
// engines will eventually see; arrival stamps handed out by concurrent
// calls in the shed window may exceed the counter briefly, which
// ArrivalObserver engines already tolerate (stamps are a monotone
// high-water mark). Callers that need exact delivery accounting should
// treat a saturated call as "retry the whole batch" — at-least-once,
// duplicates possible (DESIGN.md §12).
func (s *Sharded) InsertBatchBounded(items []uint64, wait time.Duration) error {
	return s.dispatch(items, time.Now().Add(wait))
}

// dispatch is the one ingest loop behind InsertBatch (a zero deadline:
// block on full queues) and InsertBatchBounded. A send that times out
// hands back the references of the queues the chunk did not reach and
// rolls the accepted-items counter back by the items those queues own
// plus every item not yet copied.
func (s *Sharded) dispatch(items []uint64, deadline time.Time) error {
	if len(items) == 0 {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	total := uint64(len(items))
	base := s.items.Add(total) - total
	for off := 0; off < len(items); {
		c := s.chunks.Get().(*chunk)
		c.items = append(c.items[:0], items[off:min(off+s.chunkLen, len(items))]...)
		off += len(c.items)
		c.refs.Store(int32(len(s.queues)))
		m := msg{buf: c, stamp: base + uint64(off)}
		for i := range s.queues {
			if s.send(i, m, deadline) {
				continue
			}
			unsent := total - uint64(off)
			for _, x := range c.items {
				if s.ShardOf(x) >= i {
					unsent++
				}
			}
			s.release(c, int32(len(s.queues)-i))
			s.items.Add(-unsent)
			return ErrSaturated
		}
	}
	return nil
}

// send puts m on queue i, timing the wait when the EnqueueWait hook is
// set. A zero deadline blocks until the queue has room; otherwise send
// gives up once deadline passes and reports false — m was not enqueued.
// The non-blocking attempt keeps the common case — queue has room —
// free of clock reads and timers, and lets a call whose deadline has
// already passed still enqueue into a queue with room; only a
// genuinely blocking send pays for two timestamps.
func (s *Sharded) send(i int, m msg, deadline time.Time) bool {
	q := s.queues[i]
	ew := s.opts.Hooks.EnqueueWait
	select {
	case q <- m:
		if ew != nil {
			ew(0)
		}
		return true
	default:
	}
	var start time.Time
	if ew != nil {
		start = time.Now()
	}
	ok := true
	if deadline.IsZero() {
		q <- m
	} else {
		t := time.NewTimer(time.Until(deadline))
		select {
		case q <- m:
		case <-t.C:
			ok = false
		}
		t.Stop()
	}
	if ew != nil {
		ew(time.Since(start))
	}
	return ok
}

// Items returns the number of items accepted by InsertBatch (they may
// still be queued; Flush forces them into the engines).
func (s *Sharded) Items() uint64 { return s.items.Load() }

// QueueDepths reports the current per-shard queue occupancy in chunks,
// for monitoring.
func (s *Sharded) QueueDepths() []int {
	out := make([]int, len(s.queues))
	for i, q := range s.queues {
		out[i] = len(q)
	}
	return out
}

// Do runs f against every shard's engine from the engine's owning
// goroutine, after every chunk enqueued before the call, and returns when
// all shards have run it. Calls for distinct shards run concurrently, so
// f must only touch per-shard state (index its own slot by shard).
func (s *Sharded) Do(f func(shard int, e Engine)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		// Workers have exited (Close waited for them, establishing a
		// happens-before on engine state): run inline.
		for i, e := range s.engines {
			f(i, e)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(s.queues))
	for i, q := range s.queues {
		// Sent directly, not via send: barrier entries are control
		// traffic, and must not feed the EnqueueWait ingest histogram.
		q <- msg{op: func(e Engine) {
			f(i, e)
			wg.Done()
		}}
	}
	wg.Wait()
}

// Flush blocks until every item enqueued before the call has been
// inserted into its engine.
func (s *Sharded) Flush() { s.Do(func(int, Engine) {}) }

// Report returns the union of all per-shard reports, sorted by
// decreasing estimate (ties by ascending id). Because the partition is
// disjoint no item appears twice. Thresholding against the global stream
// length is the caller's job — each engine applied its own shard-local
// threshold, which is looser (a shard holds at most the whole stream).
func (s *Sharded) Report() []core.ItemEstimate {
	parts := make([][]core.ItemEstimate, len(s.engines))
	s.Do(func(i int, e Engine) { parts[i] = e.Report() })
	var out []core.ItemEstimate
	for _, p := range parts {
		out = append(out, p...)
	}
	core.SortEstimates(out)
	return out
}

// Len returns the total number of items the engines have processed.
func (s *Sharded) Len() uint64 {
	lens := make([]uint64, len(s.engines))
	s.Do(func(i int, e Engine) { lens[i] = e.Len() })
	var total uint64
	for _, l := range lens {
		total += l
	}
	return total
}

// ModelBits returns the summed size of all shard sketches under the
// paper's accounting (DESIGN.md §4): K-way parallelism costs K sketches.
func (s *Sharded) ModelBits() int64 {
	bitsPer := make([]int64, len(s.engines))
	s.Do(func(i int, e Engine) { bitsPer[i] = e.ModelBits() })
	var total int64
	for _, b := range bitsPer {
		total += b
	}
	return total
}

// Close drains every queue, stops the workers and waits for them. After
// Close, ingest calls return ErrClosed but barrier operations (Report,
// Snapshot, …) still work, running inline — this is the graceful-shutdown
// path: stop accepting, Close to drain, then take a final report or
// checkpoint. Close is idempotent.
func (s *Sharded) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for _, q := range s.queues {
		close(q) // workers drain remaining messages, then exit
	}
	// Wait while still holding the write lock: a barrier acquiring the
	// read lock after us must find the workers already gone, or its
	// inline engine access would race the draining workers.
	s.workers.Wait()
	s.mu.Unlock()
	return nil
}
