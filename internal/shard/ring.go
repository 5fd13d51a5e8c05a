package shard

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ring is the bounded multi-producer / single-consumer queue one shard
// worker drains: a power-of-two slot array with per-slot sequence
// numbers (Vyukov's bounded-queue handshake), a producer-side tail
// claimed by CAS, and a consumer-owned head. The fast paths — push into
// a non-full ring, pop from a non-empty one — are lock-free; only a
// genuinely full producer or a genuinely idle consumer falls back to
// the mutex/condvar parking slow path. DESIGN.md §11 documents the
// protocol.
//
// Contracts the dispatch layer relies on:
//
//   - FIFO: pops observe pushes in claim order, so a barrier op pushed
//     after a chunk is popped after it (the barrier-ordering story).
//   - Backpressure: push blocks while the ring is full.
//   - close-then-drain: after close, pop returns every already-pushed
//     entry and then reports !ok; push reports !ok without enqueueing.
//
// The padding between head, tail and the slot array keeps the
// producer-shared cacheline (tail), the consumer-owned cacheline (head)
// and the data from false-sharing each other.
type ring struct {
	_    [64]byte
	tail atomic.Uint64 // next slot producers claim
	_    [56]byte
	head atomic.Uint64 // next slot the consumer pops; written only by the consumer
	_    [56]byte

	mask  uint64
	slots []ringSlot

	closed atomic.Bool

	// Parking. consumerParked / producerWaiters are the Dekker flags:
	// a producer publishes its slot, then checks consumerParked; the
	// consumer sets consumerParked under mu, then re-checks for a
	// published slot before waiting — sequentially consistent atomics
	// guarantee at least one side sees the other, so no wakeup is lost.
	// Symmetrically for producers waiting on a full ring.
	mu              sync.Mutex
	notEmpty        sync.Cond
	notFull         sync.Cond
	consumerParked  atomic.Bool
	producerWaiters atomic.Int32
}

// ringSlot pads each entry to its own cacheline so neighbouring slots
// written by different producers don't false-share.
type ringSlot struct {
	seq atomic.Uint64
	m   msg
	_   [64 - 8 - msgSize%64]byte
}

// msgSize is unsafe.Sizeof(msg{}) spelled out: a chunk pointer, a
// uint64 stamp and a func pointer. A compile-time check in ring_test.go
// keeps it honest.
const msgSize = 8 + 8 + 8

// popSpins is how many empty polls the consumer burns (yielding the
// processor between polls) before parking on the condvar. Small on
// purpose: with fewer processors than goroutines — two vCPUs running a
// producer and two workers — spinning without yielding starves the
// goroutines that would refill the ring, and each Gosched hands the
// processor straight to one of them.
const popSpins = 32

// newRing builds a ring with capacity ≥ want slots, rounded up to a
// power of two. The minimum is 2: with a single slot the sequence
// protocol cannot tell "published, unconsumed" (seq = tail+1) from
// "consumed, reusable" (seq = head + capacity = head+1), and a second
// producer would overwrite a live entry.
func newRing(want int) *ring {
	capacity := 2
	for capacity < want {
		capacity <<= 1
	}
	r := &ring{mask: uint64(capacity - 1), slots: make([]ringSlot, capacity)}
	for i := range r.slots {
		r.slots[i].seq.Store(uint64(i))
	}
	r.notEmpty.L = &r.mu
	r.notFull.L = &r.mu
	return r
}

// push enqueues m, blocking while the ring is full; it reports false —
// without enqueueing — once the ring is closed. blocked reports whether
// the caller had to wait for space (the EnqueueWait hook's signal).
func (r *ring) push(m msg) (ok, blocked bool) {
	for {
		if r.tryPush(m) {
			return true, blocked
		}
		if r.closed.Load() {
			return false, blocked
		}
		blocked = true
		r.waitNotFull()
	}
}

// pushWait enqueues m like push, but gives up once deadline passes
// instead of blocking indefinitely: it reports (false, true) on timeout
// — the load-shedding signal — and (false, false) when the ring is
// closed. A final tryPush after the deadline keeps the call linearizable
// with a consumer that freed a slot exactly at expiry.
func (r *ring) pushWait(m msg, deadline time.Time) (ok, timedOut bool) {
	for {
		if r.tryPush(m) {
			return true, false
		}
		if r.closed.Load() {
			return false, false
		}
		if !r.waitNotFullUntil(deadline) {
			return r.tryPush(m), true
		}
	}
}

// tryPush attempts a non-blocking enqueue, failing only when the ring
// is full or closed. CAS contention with other producers retries
// internally — losing a race for a slot is not fullness.
func (r *ring) tryPush(m msg) bool {
	for {
		if r.closed.Load() {
			return false
		}
		tail := r.tail.Load()
		slot := &r.slots[tail&r.mask]
		seq := slot.seq.Load()
		switch diff := int64(seq) - int64(tail); {
		case diff == 0:
			if r.tail.CompareAndSwap(tail, tail+1) {
				slot.m = m
				slot.seq.Store(tail + 1) // publish
				if r.consumerParked.Load() {
					r.mu.Lock()
					r.notEmpty.Signal()
					r.mu.Unlock()
				}
				return true
			}
		case diff < 0:
			return false // slot still occupied by an entry capacity slots ago: full
		default:
			// Another producer claimed tail first; reload and retry.
		}
	}
}

// pop dequeues the next entry, busy-polling briefly then parking when
// the ring is empty. It reports !ok only when the ring is closed and
// fully drained. Single consumer only.
func (r *ring) pop() (m msg, ok bool) {
	head := r.head.Load()
	slot := &r.slots[head&r.mask]
	spins := 0
	for {
		seq := slot.seq.Load()
		if int64(seq)-int64(head+1) == 0 {
			m = slot.m
			slot.m = msg{} // drop the chunk reference for GC
			slot.seq.Store(head + r.mask + 1)
			r.head.Store(head + 1)
			if r.producerWaiters.Load() > 0 {
				r.mu.Lock()
				r.notFull.Broadcast()
				r.mu.Unlock()
			}
			return m, true
		}
		// Empty — or a producer has claimed the slot but not yet
		// published. After close no new claims happen (close-side
		// ordering), so tail == head means fully drained; a lagging
		// publish shows up as tail > head and is spun out.
		if r.closed.Load() && r.tail.Load() == head {
			return msg{}, false
		}
		if spins < popSpins {
			spins++
			runtime.Gosched()
			continue
		}
		r.parkConsumer(head)
		spins = 0
	}
}

// parkConsumer blocks until a slot at head is published or the ring is
// closed. The parked flag is raised before the re-check so a publishing
// producer either sees it (and signals under mu, which we hold until
// Wait releases it) or published early enough for the re-check to see
// the slot.
func (r *ring) parkConsumer(head uint64) {
	r.mu.Lock()
	r.consumerParked.Store(true)
	published := r.slots[head&r.mask].seq.Load() == head+1
	if published || r.closed.Load() {
		r.consumerParked.Store(false)
		r.mu.Unlock()
		return
	}
	r.notEmpty.Wait()
	r.consumerParked.Store(false)
	r.mu.Unlock()
}

// waitNotFull blocks until a slot frees up or the ring closes, with the
// same raise-flag-then-recheck handshake as parkConsumer against the
// consumer's free-a-slot path.
func (r *ring) waitNotFull() {
	r.mu.Lock()
	r.producerWaiters.Add(1)
	tail := r.tail.Load()
	slot := &r.slots[tail&r.mask]
	if int64(slot.seq.Load())-int64(tail) >= 0 || r.closed.Load() {
		r.producerWaiters.Add(-1)
		r.mu.Unlock()
		return
	}
	r.notFull.Wait()
	r.producerWaiters.Add(-1)
	r.mu.Unlock()
}

// waitNotFullUntil is waitNotFull with a deadline: it reports false
// when the deadline passed without space freeing up. The timeout is
// realized as a one-shot timer that broadcasts notFull — a spurious
// wakeup for other waiting producers, which re-check and go back to
// sleep, never a lost one.
func (r *ring) waitNotFullUntil(deadline time.Time) bool {
	remaining := time.Until(deadline)
	if remaining <= 0 {
		return false
	}
	r.mu.Lock()
	r.producerWaiters.Add(1)
	tail := r.tail.Load()
	slot := &r.slots[tail&r.mask]
	if int64(slot.seq.Load())-int64(tail) >= 0 || r.closed.Load() {
		r.producerWaiters.Add(-1)
		r.mu.Unlock()
		return true
	}
	timer := time.AfterFunc(remaining, func() {
		r.mu.Lock()
		r.notFull.Broadcast()
		r.mu.Unlock()
	})
	r.notFull.Wait()
	r.producerWaiters.Add(-1)
	r.mu.Unlock()
	timer.Stop()
	return time.Now().Before(deadline)
}

// free reports the current spare capacity in entries (racy, for the
// load-shedding probe and monitoring).
func (r *ring) free() int { return r.capacity() - r.len() }

// close marks the ring closed and wakes the parked consumer and any
// waiting producers. Entries already pushed remain poppable (drain);
// new pushes fail. Idempotent.
func (r *ring) close() {
	r.mu.Lock()
	r.closed.Store(true)
	r.notEmpty.Signal()
	r.notFull.Broadcast()
	r.mu.Unlock()
}

// len reports the current occupancy in entries (racy, for monitoring).
func (r *ring) len() int {
	t, h := r.tail.Load(), r.head.Load()
	if t < h { // torn read under concurrency
		return 0
	}
	n := t - h
	if n > r.mask+1 {
		n = r.mask + 1
	}
	return int(n)
}

// capacity is the slot count (a power of two ≥ the requested depth).
func (r *ring) capacity() int { return int(r.mask + 1) }
