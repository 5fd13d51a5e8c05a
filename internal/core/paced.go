package core

// De-amortization, per §3.1 of the paper: "the time to update the data
// structure is bounded by O(1/ε), and so, under the standard assumption
// that the length of the stream is at least poly(ln(1/δ)ε), the time to
// perform this update can be spread out across the next O(1/ε) stream
// updates, since with large probability there will be no items sampled
// among these next O(1/ε) stream updates. Therefore, we achieve
// worst-case update time of O(1)."
//
// Paced implements the queue half of that: sampled items are queued,
// and every Insert processes at most a constant number of them. It does
// not split one sample's table work, which can itself be O(1/ε) — a
// Misra-Gries decrement sweeps the whole table — so it bounds samples
// per Insert, not worst-case time (ROADMAP.md item 7). The final state
// equals the unpaced solver's state (the sampler runs at enqueue time,
// so sampling decisions land on the same stream positions; only the
// table maintenance is deferred), hence reports are identical once the
// queue is drained.

// Pacable is the seam between the solvers' O(1) admission step (position
// bookkeeping + sampling decision) and their heavier per-sample table
// work. SimpleList, Optimal and Maximum implement it; the methods are
// unexported so the seam stays internal to the solvers.
type Pacable interface {
	// advance offers the next n stream items and returns the offset of
	// the first one sampled, or n when none is, consuming the items up
	// to and including it (sample.Skip.Advance). O(1) worst case.
	advance(n int) int
	// process performs the per-sample table work for x.
	process(x uint64)
}

// insertBatch feeds items to e in order, as one Insert per item would,
// but jumps from one sampled item to the next: the unsampled items
// between two samples cost one subtraction together, not one sampler
// step each. It is the InsertBatch of SimpleList, Optimal and Maximum.
func insertBatch(e Pacable, items []uint64) {
	for k := e.advance(len(items)); k < len(items); k = e.advance(len(items)) {
		e.process(items[k])
		items = items[k+1:]
	}
}

// Paced wraps a solver with a work queue bounding the number of sampled
// items processed per insert.
type Paced struct {
	inner     Pacable
	queue     []uint64
	head      int
	perInsert int
	maxQueue  int
}

// NewPaced wraps inner (a *SimpleList, *Optimal or *Maximum) so that each
// Insert processes at most perInsert queued samples. perInsert must be
// positive; at 1 queue growth is still bounded whp because samples
// arrive every Θ(m/ℓ) positions while draining happens every position.
func NewPaced(inner Pacable, perInsert int) *Paced {
	if perInsert <= 0 {
		panic("core: perInsert must be positive")
	}
	return &Paced{inner: inner, perInsert: perInsert}
}

// Insert enqueues x if sampled and drains at most perInsert queued
// samples, plus the O(1) admission step. Each sample's table work is the
// inner solver's, up to O(1/ε) for a Misra-Gries decrement.
func (p *Paced) Insert(x uint64) {
	if p.inner.advance(1) == 0 {
		p.queue = append(p.queue, x)
		if n := len(p.queue) - p.head; n > p.maxQueue {
			p.maxQueue = n
		}
	}
	for i := 0; i < p.perInsert && p.head < len(p.queue); i++ {
		p.inner.process(p.queue[p.head])
		p.head++
	}
	// Compact once fully drained so the buffer does not grow without
	// bound over the stream.
	if p.head == len(p.queue) && p.head > 0 {
		p.queue = p.queue[:0]
		p.head = 0
	}
}

// Flush drains the queue; call before reporting from the inner solver.
func (p *Paced) Flush() {
	for p.head < len(p.queue) {
		p.inner.process(p.queue[p.head])
		p.head++
	}
	p.queue = p.queue[:0]
	p.head = 0
}

// PerInsert returns the per-insert work budget the queue was built with.
func (p *Paced) PerInsert() int { return p.perInsert }

// Pending returns the current queue backlog (diagnostics).
func (p *Paced) Pending() int { return len(p.queue) - p.head }

// MaxBacklog returns the largest backlog observed (diagnostics; the §3.1
// argument says this stays O(1) whp when perInsert = 1 and m ≫ ℓ).
func (p *Paced) MaxBacklog() int { return p.maxQueue }

// --- pacable implementations (SimpleList and Maximum: algo1.go) ---

func (o *Optimal) advance(n int) int {
	k := o.sampler.Advance(n)
	o.offered += uint64(min(k+1, n)) // through the sample, or all n
	return k
}

func (o *Optimal) process(x uint64) {
	o.processSample(x)
}
