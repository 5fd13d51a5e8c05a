// Package shard is the concurrent ingest engine: it hash-partitions the
// item universe across N independent single-threaded sketches, each owned
// by a dedicated worker goroutine fed through bounded lock-free rings
// (cache-line padded, multi-producer single-consumer, batch-granularity
// handoff), and coordinates barrier operations — report, flush,
// snapshot — against all of them.
//
// The partition is disjoint: every id is routed by a fixed seeded hash to
// exactly one shard, so each item's full frequency lands in one sketch and
// per-shard reports union cleanly. The layer is generic over the Engine
// interface; the threshold semantics of the merged report (what counts as
// heavy against the *global* stream length) belong to the caller — see the
// root package's sharded solver (sharded.go), and DESIGN.md §3 for the
// error analysis and §11 for the ring protocol.
//
// Concurrency model: any number of goroutines may call Insert/InsertBatch
// concurrently; barrier operations (Report, Len, ModelBits, Snapshot, Do,
// Flush) may run concurrently with ingest and observe some linearization
// of it. Engines themselves are only ever touched by their owning worker
// goroutine, so they need no locking. After Close, the workers have
// exited and barrier operations run inline on the caller's goroutine.
//
// The ingest path is allocation-free in steady state: batch buffers and
// partition scratch come from pools, and the dispatch loop pipelines the
// partition hash over a chunk of items before touching the batches.
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
// accounting. Engines that implement it receive, before each batch is
// inserted, a monotone stamp: the container-wide count of items accepted
// so far (including the batch itself). A shard engine that records the
// stamp alongside its own item count can measure its share of recent
// global traffic — what the rate-extrapolated count-window report fold
// needs (DESIGN.md §8) — without any per-item work on the insert path.
// The stamp is batch-granular and, under concurrent producers, may
// arrive slightly out of order; observers should treat it as a
// monotone high-water mark.
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
	// EnqueueWait observes, once per dispatched batch, how long
	// InsertBatch blocked waiting for space on a full shard ring.
	// The fast path — ring had room — reports 0 without reading the
	// clock, so an uncongested pipeline pays no timer cost.
	EnqueueWait func(d time.Duration)
	// BatchApply observes how long a shard worker spent inserting one
	// batch into its engine. Called from the worker goroutine.
	BatchApply func(d time.Duration)
}

// Factory builds the engine for one shard. It is called once per shard,
// serially and in shard order, so seed derivation inside the factory is
// deterministic.
type Factory func(shard, total int) (Engine, error)

// ErrClosed is returned by ingest calls after Close.
var ErrClosed = errors.New("shard: engine closed")

// ErrSaturated is returned by InsertBatchBounded when a shard ring
// stayed full for the whole bounded wait: the ingest rate exceeds what
// the shard workers drain, and the caller should shed load (back off
// and retry) instead of queueing more. Items dispatched before the
// saturated ring was hit HAVE been enqueued — delivery under shedding
// is at-least-once, not atomic (DESIGN.md §12).
var ErrSaturated = errors.New("shard: ingest queues saturated")

// Options configures the ingest layer (not the sketches).
type Options struct {
	// Shards is the partition width; 0 defaults to GOMAXPROCS.
	Shards int
	// QueueDepth is the per-shard ring capacity in batches, rounded up
	// to a power of two; 0 defaults to 64. Pushes block when a ring is
	// full, which is the backpressure mechanism.
	QueueDepth int
	// MaxBatch caps the items per dispatched batch; 0 defaults to 4096.
	// Larger batches amortize the ring hand-off further at the cost
	// of latency before a barrier can observe the items.
	MaxBatch int
	// Seed seeds the partition hash. The same seed must be used to
	// restore a snapshot (Snapshot records it).
	Seed uint64
	// Hooks are optional stage-timing callbacks; the zero value
	// disables them at nil-check cost.
	Hooks Hooks
}

func (o *Options) fill() {
	if o.Shards == 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 64
	}
	if o.MaxBatch == 0 {
		o.MaxBatch = 4096
	}
}

// msg is the unit of work on a shard ring: either a batch of items or a
// barrier op. Ring FIFO order is what makes a barrier observe every
// batch enqueued before it. Batches carry the global arrival stamp for
// engines that observe it (ArrivalObserver), and travel as the pooled
// buffer's own pointer so the worker can recycle it without
// re-boxing (a *[]uint64 round-trips through sync.Pool with zero
// allocations; a []uint64 would cost a header allocation per Put).
type msg struct {
	buf   *[]uint64
	stamp uint64
	op    func(e Engine)
}

// Sharded fans a stream out to per-shard engines.
type Sharded struct {
	opts    Options
	engines []Engine
	rings   []*ring
	workers sync.WaitGroup

	// mix is the partition-hash key, derived from Options.Seed; forced
	// odd so x*mix is a bijection on uint64.
	mix uint64

	pool    sync.Pool // *[]uint64 batch buffers, cap == MaxBatch
	scratch sync.Pool // *dispatch partition state, one per in-flight InsertBatch
	items   atomic.Uint64

	// mu guards the closed transition: ingest and barriers hold it for
	// read, Close holds it for write so nothing pushes on a closed ring.
	mu     sync.RWMutex
	closed bool
}

// dispatch is the per-call partition state InsertBatch borrows from the
// scratch pool: the open batch per shard (parts) and its pool container
// (bufs), so the hot loop appends to plain slice headers and only
// writes the header back into the container at send time.
type dispatch struct {
	parts [][]uint64
	bufs  []*[]uint64
}

// New builds engines with factory and starts one worker per shard.
func New(factory Factory, opts Options) (*Sharded, error) {
	opts.fill()
	if opts.Shards < 1 {
		return nil, fmt.Errorf("shard: invalid shard count %d", opts.Shards)
	}
	s := &Sharded{
		opts: opts,
		mix:  rng.New(opts.Seed).Uint64() | 1,
	}
	s.pool.New = func() any {
		b := make([]uint64, 0, opts.MaxBatch)
		return &b
	}
	s.scratch.New = func() any {
		return &dispatch{
			parts: make([][]uint64, opts.Shards),
			bufs:  make([]*[]uint64, opts.Shards),
		}
	}
	s.engines = make([]Engine, opts.Shards)
	s.rings = make([]*ring, opts.Shards)
	for i := range s.engines {
		e, err := factory(i, opts.Shards)
		if err != nil {
			return nil, fmt.Errorf("shard %d/%d: %w", i, opts.Shards, err)
		}
		s.engines[i] = e
		s.rings[i] = newRing(opts.QueueDepth)
	}
	s.workers.Add(opts.Shards)
	for i := range s.engines {
		go s.worker(i)
	}
	return s, nil
}

// worker owns engine i: it drains the ring, inserting batches and
// running barrier ops in arrival order, until Close closes the ring.
// The ArrivalObserver assertion happens once, outside the loop, so the
// per-batch cost for engines without arrival accounting is one nil
// check.
func (s *Sharded) worker(i int) {
	defer s.workers.Done()
	e := s.engines[i]
	ao, _ := e.(ArrivalObserver)
	ba := s.opts.Hooks.BatchApply
	r := s.rings[i]
	for {
		m, ok := r.pop()
		if !ok {
			return
		}
		if m.op != nil {
			m.op(e)
			continue
		}
		if ao != nil {
			ao.ObserveArrivalStamp(m.stamp)
		}
		if ba == nil {
			for _, x := range *m.buf {
				e.Insert(x)
			}
		} else {
			start := time.Now()
			for _, x := range *m.buf {
				e.Insert(x)
			}
			ba(time.Since(start))
		}
		s.putBatch(m.buf)
	}
}

// ShardOf returns the shard that owns id x: the high bits of a
// multiplicative hash, range-reduced without bias toward low shards.
// It is a pure function of (x, Options.Seed) for a fixed shard count.
func (s *Sharded) ShardOf(x uint64) int {
	h := x * s.mix
	h ^= h >> 29 // mixes the low input bits into the product's high bits
	hi, _ := bits.Mul64(h, uint64(len(s.engines)))
	return int(hi)
}

// Shards returns the partition width.
func (s *Sharded) Shards() int { return len(s.engines) }

func (s *Sharded) getBatch() *[]uint64 {
	b := s.pool.Get().(*[]uint64)
	*b = (*b)[:0]
	return b
}

// putBatch recycles a batch buffer, unless its capacity no longer
// matches the pool's — recycling an undersized slice would poison the
// pool with buffers that force reallocation downstream, and an
// oversized one would pin its large backing array forever.
func (s *Sharded) putBatch(b *[]uint64) {
	if cap(*b) != s.opts.MaxBatch {
		return
	}
	*b = (*b)[:0]
	s.pool.Put(b)
}

// Insert routes a single item: a one-entry batch cut from the buffer
// pool, so even the slow path allocates nothing in steady state.
// High-throughput producers should still call InsertBatch — the ring
// handoff amortizes over the batch.
func (s *Sharded) Insert(x uint64) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	stamp := s.items.Add(1)
	h := x * s.mix
	h ^= h >> 29
	i, _ := bits.Mul64(h, uint64(len(s.engines)))
	buf := s.getBatch()
	*buf = append(*buf, x)
	s.send(int(i), msg{buf: buf, stamp: stamp})
	return nil
}

// hashChunk is how many items the dispatch loop hashes ahead of the
// append pass. The first pass is pure arithmetic with no branches or
// stores beyond the index buffer, so the multiplies pipeline; the
// second pass then runs append-only. The buffer lives on the stack.
const hashChunk = 512

// InsertBatch partitions items by owning shard and enqueues one batch per
// shard touched (splitting at MaxBatch). Safe for any number of
// concurrent callers; blocks when a shard ring is full (backpressure).
// The input slice is not retained.
//
// The accepted-items counter reserves the whole call's range up front;
// each dispatched batch then carries, as its arrival stamp for
// ArrivalObserver engines, the global position of the last item scanned
// when it was cut. Stamps are therefore accurate to one dispatched batch
// even when a single call delivers millions of items, at the cost of
// one add per call and no per-item work.
func (s *Sharded) InsertBatch(items []uint64) error {
	if len(items) == 0 {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	base := s.items.Add(uint64(len(items))) - uint64(len(items))
	d := s.scratch.Get().(*dispatch)
	parts := d.parts
	mix, n := s.mix, uint64(len(s.engines))
	maxBatch := s.opts.MaxBatch
	var dst [hashChunk]uint32
	for off := 0; off < len(items); off += hashChunk {
		chunk := items[off:]
		if len(chunk) > hashChunk {
			chunk = chunk[:hashChunk]
		}
		for k, x := range chunk {
			h := x * mix
			h ^= h >> 29
			hi, _ := bits.Mul64(h, n)
			dst[k] = uint32(hi)
		}
		for k, x := range chunk {
			i := dst[k]
			p := parts[i]
			if p == nil {
				b := s.getBatch()
				d.bufs[i], p = b, *b
			}
			p = append(p, x)
			if len(p) >= maxBatch {
				*d.bufs[i] = p
				s.send(int(i), msg{buf: d.bufs[i], stamp: base + uint64(off+k) + 1})
				parts[i], d.bufs[i] = nil, nil
				continue
			}
			parts[i] = p
		}
	}
	for i, p := range parts {
		if p != nil {
			*d.bufs[i] = p
			s.send(i, msg{buf: d.bufs[i], stamp: base + uint64(len(items))})
			parts[i], d.bufs[i] = nil, nil
		}
	}
	s.scratch.Put(d)
	return nil
}

// InsertBatchBounded is InsertBatch with load shedding instead of
// unbounded backpressure: when a shard ring stays full past wait, it
// returns ErrSaturated rather than blocking until space frees up. The
// wait budget covers the whole call, not each enqueue.
//
// Shedding is not atomic: batches dispatched to non-saturated shards
// before the full ring was hit have been enqueued and will be applied.
// The accepted-items counter is rolled back for the unsent remainder,
// so Items still tracks what the engines will eventually see; arrival
// stamps handed out by concurrent calls in the shed window may exceed
// the counter briefly, which ArrivalObserver engines already tolerate
// (stamps are a monotone high-water mark). Callers that need exact
// delivery accounting should treat a saturated call as "retry the whole
// batch" — at-least-once, duplicates possible (DESIGN.md §12).
func (s *Sharded) InsertBatchBounded(items []uint64, wait time.Duration) error {
	if len(items) == 0 {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	deadline := time.Now().Add(wait)
	total := uint64(len(items))
	base := s.items.Add(total) - total
	d := s.scratch.Get().(*dispatch)
	parts := d.parts
	mix, n := s.mix, uint64(len(s.engines))
	maxBatch := s.opts.MaxBatch
	var sent uint64
	var dst [hashChunk]uint32
	for off := 0; off < len(items); off += hashChunk {
		chunk := items[off:]
		if len(chunk) > hashChunk {
			chunk = chunk[:hashChunk]
		}
		for k, x := range chunk {
			h := x * mix
			h ^= h >> 29
			hi, _ := bits.Mul64(h, n)
			dst[k] = uint32(hi)
		}
		for k, x := range chunk {
			i := dst[k]
			p := parts[i]
			if p == nil {
				b := s.getBatch()
				d.bufs[i], p = b, *b
			}
			p = append(p, x)
			if len(p) >= maxBatch {
				*d.bufs[i] = p
				if !s.sendBounded(int(i), msg{buf: d.bufs[i], stamp: base + uint64(off+k) + 1}, deadline) {
					s.putBatch(d.bufs[i]) // the failed batch's items count as unsent
					parts[i], d.bufs[i] = nil, nil
					return s.abortDispatch(d, total-sent)
				}
				sent += uint64(len(p))
				parts[i], d.bufs[i] = nil, nil
				continue
			}
			parts[i] = p
		}
	}
	for i, p := range parts {
		if p != nil {
			*d.bufs[i] = p
			if !s.sendBounded(i, msg{buf: d.bufs[i], stamp: base + total}, deadline) {
				s.putBatch(d.bufs[i])
				parts[i], d.bufs[i] = nil, nil
				return s.abortDispatch(d, total-sent)
			}
			sent += uint64(len(p))
			parts[i], d.bufs[i] = nil, nil
		}
	}
	s.scratch.Put(d)
	return nil
}

// abortDispatch unwinds a saturated InsertBatchBounded call: open
// per-shard buffers are recycled, the accepted-items counter gives back
// the unsent remainder (the saturated batch itself plus everything not
// yet dispatched), and the scratch state goes back to the pool.
func (s *Sharded) abortDispatch(d *dispatch, unsent uint64) error {
	for i, p := range d.parts {
		if p != nil {
			*d.bufs[i] = p
			s.putBatch(d.bufs[i])
			d.parts[i], d.bufs[i] = nil, nil
		}
	}
	s.items.Add(^(unsent - 1)) // subtract: two's-complement add
	s.scratch.Put(d)
	return ErrSaturated
}

// sendBounded pushes one message with a deadline, reporting false on
// timeout (the message was NOT enqueued). Same EnqueueWait hook
// discipline as send: the non-blocking fast path observes 0 without a
// clock read.
func (s *Sharded) sendBounded(i int, m msg, deadline time.Time) bool {
	r := s.rings[i]
	ew := s.opts.Hooks.EnqueueWait
	if r.tryPush(m) {
		if ew != nil {
			ew(0)
		}
		return true
	}
	if ew == nil {
		ok, _ := r.pushWait(m, deadline)
		return ok
	}
	start := time.Now()
	ok, _ := r.pushWait(m, deadline)
	ew(time.Since(start))
	return ok
}

// SpareCapacity reports the smallest spare ring capacity across the
// shards, in batches — the non-blocking saturation probe: 0 means at
// least one shard ring is full and an unbounded InsertBatch would
// block. Racy by nature (rings drain concurrently); treat it as a
// monitoring signal, not a reservation.
func (s *Sharded) SpareCapacity() int {
	spare := -1
	for _, r := range s.rings {
		if f := r.free(); spare < 0 || f < spare {
			spare = f
		}
	}
	if spare < 0 {
		return 0
	}
	return spare
}

// send pushes one message onto shard i's ring, timing the wait when the
// EnqueueWait hook is set. The non-blocking attempt keeps the common
// case — ring has room — free of clock reads; only a genuinely
// blocking push pays for two timestamps.
func (s *Sharded) send(i int, m msg) {
	r := s.rings[i]
	ew := s.opts.Hooks.EnqueueWait
	if ew == nil {
		r.push(m)
		return
	}
	if r.tryPush(m) {
		ew(0)
		return
	}
	start := time.Now()
	r.push(m)
	ew(time.Since(start))
}

// Items returns the number of items accepted by InsertBatch (they may
// still be queued; Flush forces them into the engines).
func (s *Sharded) Items() uint64 { return s.items.Load() }

// QueueDepths reports the current per-shard ring occupancy in batches,
// for monitoring.
func (s *Sharded) QueueDepths() []int {
	out := make([]int, len(s.rings))
	for i, r := range s.rings {
		out[i] = r.len()
	}
	return out
}

// Do runs f against every shard's engine from the engine's owning
// goroutine, after every batch enqueued before the call, and returns when
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
	wg.Add(len(s.rings))
	for i := range s.rings {
		i := i
		// Pushed directly, not via send: barrier entries are control
		// traffic, and must not feed the EnqueueWait ingest histogram.
		s.rings[i].push(msg{op: func(e Engine) {
			f(i, e)
			wg.Done()
		}})
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

// Close drains every ring, stops the workers and waits for them. After
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
	for _, r := range s.rings {
		r.close() // workers drain remaining messages, then exit
	}
	// Wait while still holding the write lock: a barrier acquiring the
	// read lock after us must find the workers already gone, or its
	// inline engine access would race the draining workers.
	s.workers.Wait()
	s.mu.Unlock()
	return nil
}
