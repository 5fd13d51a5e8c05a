// Package window turns any whole-stream solver engine into a sliding-
// window one: instead of answering (ε,ϕ)-heavy hitters over everything
// ever inserted, a Window answers over the last N items (count mode) or
// the last D of wall time (time mode).
//
// The construction is exponential-histogram-flavoured epoch bucketing,
// simplified to equal-width buckets because the merge tier makes bucket
// combination exact: the stream is chopped into consecutive epochs, each
// ingested by a fresh engine built from the same configuration (same
// seed). A ring of the most recent buckets covers the window; buckets
// whose entire content has aged out are retired wholesale. A sealed
// bucket never changes again, so it is kept as its engine's checkpoint
// frame; only the open bucket holds a decoded engine. A report decodes
// the oldest frame and folds the other buckets into it, one frame at a
// time, with the same state-merge rules the distributed tier uses
// (DESIGN.md §7), so the combined answer carries the serial solver's
// (ε,ϕ) guarantees against the concatenation of the live buckets.
//
// That concatenation is the window plus at most one partial epoch: the
// covered mass M satisfies W ≤ M < W + ⌈W/B⌉ in count mode (window W,
// B buckets), and spans at most D + D/B of wall time in time mode. The
// error bound therefore degrades gracefully, by at most the mass of the
// one straddling bucket — choosing B ≥ 2ϕ/ε keeps the (ε,ϕ) decision
// boundary clean against the window itself (DESIGN.md §8).
//
// A Window is single-owner, exactly like the engines it wraps: it
// satisfies the shard.Engine contract, so internal/shard can run one
// window per shard worker for concurrent windowed ingest.
package window

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/shard"
)

// Engine is what a bucket runs: a shard engine that writes the
// checkpoint frame its bucket keeps once sealed.
type Engine interface {
	shard.Engine
	shard.Marshaler
}

// Factory builds one fresh bucket engine. Every bucket must be built
// from the same configuration — seed included — because reports fold
// buckets with the state-merge rules, which require identical random
// choices across the states being folded.
type Factory func() (Engine, error)

// Restorer rebuilds a bucket engine from the frame its MarshalBinary
// produced; Report uses it to decode sealed buckets for the fold, and
// Restore uses it to decode checkpoints.
type Restorer func(frame []byte) (Engine, error)

// Options configures a Window. Exactly one of LastN and LastDuration
// must be non-zero.
type Options struct {
	// LastN selects a count-based window: reports answer for (at least)
	// the last LastN items.
	LastN uint64
	// LastDuration selects a time-based window: reports answer for (at
	// least) the items of the last LastDuration of wall time.
	LastDuration time.Duration
	// Buckets is the granularity B: the window is covered by B sealed
	// epoch buckets plus one live bucket, and the report's covered mass
	// overshoots the window by at most one bucket. 0 defaults to 8.
	// Larger B tightens the window at the cost of a B-way fold per
	// report; B ≥ 2ϕ/ε keeps the (ε,ϕ) boundary clean (DESIGN.md §8).
	Buckets int
	// Now is the clock, for time-based windows and bucket metadata;
	// nil defaults to time.Now. Tests and simulations inject their own.
	Now func() time.Time
}

// DefaultBuckets is the bucket count when Options.Buckets is zero.
const DefaultBuckets = 8

// maxBuckets bounds the granularity: beyond it the per-insert and
// per-report bucket walks stop being negligible, and a checkpoint
// claiming more is hostile rather than configured.
const maxBuckets = 1 << 20

// MaxLive is the most buckets a window of granularity b holds at once —
// b sealed epochs, one more straddling the window's edge, and the live
// bucket — and so the most bucket engines one checkpoint of it carries;
// Restore refuses more.
func MaxLive(b int) int { return b + 2 }

// MaxLastN bounds the count-window length. Beyond it the ceil-division
// arithmetic (bucket capacity, slack) risks uint64 wraparound — a
// wrapped capacity of 0 would silently degenerate the window — and no
// real deployment windows 2⁵⁶ items.
const MaxLastN = 1 << 56

func (o *Options) fill() error {
	if o.Buckets == 0 {
		o.Buckets = DefaultBuckets
	}
	if o.Buckets < 1 || o.Buckets > maxBuckets {
		return fmt.Errorf("window: bucket count %d out of [1, %d]", o.Buckets, maxBuckets)
	}
	if (o.LastN == 0) == (o.LastDuration == 0) {
		return errors.New("window: exactly one of LastN and LastDuration must be set")
	}
	if o.LastN > MaxLastN {
		return fmt.Errorf("window: LastN %d exceeds the %d maximum", o.LastN, uint64(MaxLastN))
	}
	if o.LastDuration < 0 {
		return fmt.Errorf("window: negative duration %s", o.LastDuration)
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return nil
}

// bucket is one epoch: its sketch plus the metadata retirement needs.
// The live bucket's sketch is its engine; a sealed bucket's is the
// engine's checkpoint frame and the ModelBits that engine was charged.
type bucket struct {
	eng   Engine // live bucket only
	frame []byte // sealed buckets only
	bits  int64  // sealed buckets only
	count uint64
	// start is when the bucket was opened; last is the arrival time of
	// its most recent item. Retirement in time mode keys on last: a
	// bucket is dead only once even its newest item has aged out.
	start, last time.Time
	// startStamp is the global-arrival stamp (ObserveArrivalStamp) when
	// the bucket was opened; stamped records whether that stamp is
	// meaningful (false for buckets restored from a pre-stamp snapshot).
	// The oldest live bucket's startStamp is what turns the covered mass
	// into a share of global traffic: coverage spans globalNow −
	// startStamp global arrivals. startGap is the stamp granularity at
	// opening time (the distance between the two stamps the midpoint was
	// interpolated from) — the uncertainty of startStamp, which share
	// consumers compare against the span before trusting it.
	startStamp uint64
	startGap   uint64
	stamped    bool
}

// Stats is a point-in-time description of what a report answers for.
type Stats struct {
	// Covered is the mass a Report answers for: the summed item count of
	// the live buckets. In count mode min(LastN, Total) ≤ Covered <
	// LastN + ⌈LastN/Buckets⌉.
	Covered uint64
	// Total is the number of items ever inserted.
	Total uint64
	// Retired is the mass dropped with expired buckets: Total − Covered.
	Retired uint64
	// RetiredBuckets counts the buckets retired so far.
	RetiredBuckets uint64
	// Buckets is the number of live buckets (sealed + the open one).
	Buckets int
	// OldestMass is the item count of the oldest live bucket — the upper
	// bound on how much of Covered may predate the exact window.
	OldestMass uint64
	// Span is the wall-time age of the oldest live bucket's first item
	// (zero when the window has never seen an item).
	Span time.Duration
	// CoveredMin and CoveredMax bound the per-shard covered masses when
	// this Stats aggregates a sharded window (the stale-shard caveat of
	// DESIGN.md §8 shows up as CoveredMin stuck while CoveredMax moves);
	// on a single window both equal Covered.
	CoveredMin, CoveredMax uint64
	// ShareSkew is the ratio between the largest and smallest per-shard
	// share of recent global traffic, measured over each shard's covered
	// span of global arrivals: 1 when balanced (and always on a single
	// window), larger under item skew or shard staleness. It is 1 when
	// fewer than two shards have usable share accounting.
	ShareSkew float64
	// Extrapolated reports whether sharded count-window reports are
	// rate-extrapolated against the measured traffic shares (DESIGN.md
	// §8); false on a single window and for time windows (whose
	// wall-clock retirement is skew-immune).
	Extrapolated bool
	// PerShardWindow is the count window each shard covers: the ⌈W/K⌉
	// split when this Stats aggregates a sharded window, the window
	// itself on a single count window, 0 in time mode (every shard
	// spans the same wall clock). It is what distinguishes a sharded
	// (tag 5) window from a serial (tag 4) one at query time.
	PerShardWindow uint64
}

// Window slides a (ε,ϕ)-report window over a stream by epoch bucketing.
// It is not safe for concurrent use; wrap it in a shard worker (or a
// lock) for concurrent ingest.
type Window struct {
	opts    Options
	factory Factory
	restore Restorer

	// bucketCap is the per-bucket item capacity in count mode:
	// ⌈LastN/Buckets⌉, at least 1.
	bucketCap uint64
	// interval is the per-bucket wall-time span in time mode:
	// LastDuration/Buckets, at least 1ns.
	interval time.Duration

	sealed []*bucket // oldest first
	live   *bucket
	// cov is the running covered mass: Σ live-bucket counts, maintained
	// incrementally so the count-mode retirement check is O(1) per
	// insert rather than a rescan of the sealed ring.
	cov uint64

	total          uint64
	retired        uint64
	retiredBuckets uint64

	// stamp is the monotone high-water mark of observed global-arrival
	// stamps; stampKnown records whether it is meaningful. A fresh
	// window starts known at 0 (the stream origin); a window restored
	// from a pre-stamp snapshot starts unknown and becomes known again
	// on the first ObserveArrivalStamp — share accounting resets rather
	// than inventing spans (DESIGN.md §8). prevStamp trails stamp by one
	// observation: a batch stamp is the global position of the batch's
	// END, so a bucket that rotates mid-batch opens at a position
	// uniformly inside (prevStamp, stamp] — the midpoint is the
	// unbiased estimate openLive records, where taking stamp itself
	// would bias every span short by up to a batch and inflate the
	// extrapolation weights.
	stamp      uint64
	prevStamp  uint64
	stampKnown bool
}

// newWindow validates and builds the Window shell, without opening the
// initial live bucket: New opens a fresh one, Restore installs decoded
// ones (building an engine only to discard it would waste a full
// window-scale allocation per restore).
func newWindow(factory Factory, restore Restorer, opts Options) (*Window, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	if factory == nil || restore == nil {
		return nil, errors.New("window: factory and restorer are required")
	}
	w := &Window{opts: opts, factory: factory, restore: restore, stampKnown: true}
	if opts.LastN > 0 {
		w.bucketCap = (opts.LastN + uint64(opts.Buckets) - 1) / uint64(opts.Buckets)
	} else {
		w.interval = opts.LastDuration / time.Duration(opts.Buckets)
		if w.interval <= 0 {
			w.interval = 1
		}
	}
	return w, nil
}

// New returns an empty Window over engines built by factory; restore
// must invert the engines' MarshalBinary.
func New(factory Factory, restore Restorer, opts Options) (*Window, error) {
	w, err := newWindow(factory, restore, opts)
	if err != nil {
		return nil, err
	}
	if err := w.openLive(); err != nil {
		return nil, err
	}
	return w, nil
}

// openLive replaces the live bucket with a fresh one.
func (w *Window) openLive() error {
	e, err := w.factory()
	if err != nil {
		return fmt.Errorf("window: building bucket engine: %w", err)
	}
	now := w.opts.Now()
	w.live = &bucket{
		eng: e, start: now, last: now,
		startStamp: w.prevStamp + (w.stamp-w.prevStamp)/2,
		startGap:   w.stamp - w.prevStamp,
		stamped:    w.stampKnown,
	}
	return nil
}

// ObserveArrivalStamp records a global-arrival stamp (the container-wide
// accepted-items count, per shard.ArrivalObserver). The window keeps the
// monotone maximum plus its predecessor (see prevStamp); buckets opened
// afterwards remember the midpoint, which is what prices the covered
// mass as a share of global traffic. It costs one compare per batch —
// nothing on the per-item insert path.
func (w *Window) ObserveArrivalStamp(stamp uint64) {
	if stamp > w.stamp {
		w.prevStamp = w.stamp
		w.stamp = stamp
	}
	w.stampKnown = true
}

// ArrivalStamps reports the global-arrival accounting of the live
// coverage: oldest is the stamp when the oldest live bucket opened (the
// covered mass spans roughly globalNow − oldest global arrivals), latest
// the monotone high-water mark of observed stamps, and gap the stamp
// granularity at the oldest bucket's opening — the uncertainty of
// oldest, which callers compare against the span before trusting a
// share estimate. ok is false when the accounting is unusable — the
// window was never fed stamps, or it was restored from a pre-stamp
// snapshot and the oldest covered bucket predates the reset.
func (w *Window) ArrivalStamps() (oldest, latest, gap uint64, ok bool) {
	_ = w.advance()
	b := w.oldest()
	if !w.stampKnown || !b.stamped {
		return 0, 0, 0, false
	}
	return b.startStamp, w.stamp, b.startGap, true
}

// seal freezes the live bucket into its checkpoint frame, moves it onto
// the sealed ring and opens a new one. The frame is written and the new
// bucket opened before anything moves: if either fails, the live bucket
// stays live-only — appending it to sealed before knowing the outcome
// would alias it on both lists and double-count its mass.
func (w *Window) seal() error {
	old := w.live
	frame, err := old.eng.MarshalBinary()
	if err != nil {
		return fmt.Errorf("window: sealing bucket: %w", err)
	}
	if err := w.openLive(); err != nil {
		return err
	}
	old.frame, old.bits, old.eng = frame, old.eng.ModelBits(), nil
	w.sealed = append(w.sealed, old)
	return nil
}

// retireBucket drops the oldest sealed bucket.
func (w *Window) retireBucket() {
	b := w.sealed[0]
	w.sealed[0] = nil
	w.sealed = w.sealed[1:]
	w.cov -= b.count
	w.retired += b.count
	w.retiredBuckets++
}

// advance seals and retires per the window mode. It runs before every
// insert and every query, so retirement happens even on an idle stream
// (time mode) and a query never sees a bucket that should be gone.
func (w *Window) advance() error {
	if w.bucketCap > 0 {
		// Count mode: seal a full live bucket, then drop sealed buckets
		// whose entire mass sits beyond the last-LastN window.
		if w.live.count >= w.bucketCap {
			if err := w.seal(); err != nil {
				return err
			}
		}
		for len(w.sealed) > 0 && w.covered()-w.sealed[0].count >= w.opts.LastN {
			w.retireBucket()
		}
		return nil
	}
	return w.advanceAt(w.opts.Now())
}

// advanceAt is time-mode advance for a clock reading the caller already
// holds, so Insert pays one clock read per item, not two.
func (w *Window) advanceAt(now time.Time) error {
	// Seal a non-empty live bucket once its epoch has elapsed (an empty
	// one just slides forward — no point sealing nothing), then drop
	// sealed buckets whose newest item predates the window.
	if now.Sub(w.live.start) >= w.interval {
		if w.live.count > 0 {
			if err := w.seal(); err != nil {
				return err
			}
		} else {
			w.live.start, w.live.last = now, now
		}
	}
	horizon := now.Add(-w.opts.LastDuration)
	for len(w.sealed) > 0 && !w.sealed[0].last.After(horizon) {
		w.retireBucket()
	}
	return nil
}

// covered is the summed live-bucket mass (maintained incrementally).
func (w *Window) covered() uint64 { return w.cov }

// Insert adds one stream item to the window. A failed bucket rotation
// (the live engine's frame or the factory erroring) keeps ingesting into
// the current live bucket — the window degrades (coarser epochs) rather
// than losing items; engines and factories that succeeded once do not
// fail later in practice (they only encode and allocate).
func (w *Window) Insert(x uint64) {
	if w.interval > 0 {
		// Only time mode needs arrival times; one clock read serves both
		// the rotation check and the bucket's last-arrival stamp. Count
		// mode keeps the hot path free of clock reads entirely.
		now := w.opts.Now()
		_ = w.advanceAt(now)
		w.live.last = now
	} else {
		_ = w.advance()
	}
	w.live.eng.Insert(x)
	w.live.count++
	w.cov++
	w.total++
}

// InsertBatch adds items in order, as one Insert per item would. A
// count window hands its live engine runs that end where a bucket
// seals, so the engine's batch path sees each run whole; a time window
// reads its clock per item, as Insert does.
func (w *Window) InsertBatch(items []uint64) {
	if w.interval > 0 {
		for _, x := range items {
			w.Insert(x)
		}
		return
	}
	for len(items) > 0 {
		_ = w.advance()
		// A failed seal leaves the live bucket full; Insert then keeps
		// retrying the seal per item, and so does a run of one.
		n := uint64(1)
		if w.live.count < w.bucketCap {
			n = min(w.bucketCap-w.live.count, uint64(len(items)))
		}
		w.live.eng.InsertBatch(items[:n])
		w.live.count += n
		w.cov += n
		w.total += n
		items = items[n:]
	}
}

// oldest returns the oldest live bucket: the first sealed one, or the
// open one when nothing is sealed.
func (w *Window) oldest() *bucket {
	if len(w.sealed) > 0 {
		return w.sealed[0]
	}
	return w.live
}

// Report answers (ε,ϕ)-heavy hitters for the covered mass — the window
// plus at most one partial epoch (see Stats). It decodes the oldest
// sealed frame and folds the other sealed frames, one decoded at a time,
// and then the open bucket into it with the distributed tier's
// state-merge rules, so the answer carries the serial solver's
// guarantees at m = Covered while at most three engines are decoded at
// once. The buckets themselves are never mutated.
func (w *Window) Report() ([]core.ItemEstimate, error) {
	if err := w.advance(); err != nil {
		return nil, err
	}
	if len(w.sealed) == 0 {
		return w.live.eng.Report(), nil
	}
	base, err := w.decode(w.sealed[0])
	if err != nil {
		return nil, err
	}
	merger, ok := base.(shard.EngineMerger)
	if !ok {
		return nil, fmt.Errorf("window: engine %T cannot fold buckets (no merge support)", base)
	}
	for _, b := range w.sealed[1:] {
		e, err := w.decode(b)
		if err != nil {
			return nil, err
		}
		if err := merger.MergeEngine(e); err != nil {
			return nil, fmt.Errorf("window: folding bucket: %w", err)
		}
	}
	if err := merger.MergeEngine(w.live.eng); err != nil {
		return nil, fmt.Errorf("window: folding bucket: %w", err)
	}
	return base.Report(), nil
}

// decode rebuilds a sealed bucket's engine from its frame.
func (w *Window) decode(b *bucket) (Engine, error) {
	e, err := w.restore(b.frame)
	if err != nil {
		return nil, fmt.Errorf("window: decoding sealed bucket: %w", err)
	}
	return e, nil
}

// ReportUnion is the degraded fallback report: per-bucket reports with
// estimates summed item-wise. It never fails, but an item missing from
// some bucket's report loses that bucket's contribution, so estimates
// may undercount by up to the per-bucket report thresholds; so does a
// sealed bucket whose frame does not decode. Callers use it only when
// Report's fold path errors.
func (w *Window) ReportUnion() []core.ItemEstimate {
	_ = w.advance()
	sums := make(map[uint64]float64)
	add := func(e Engine) {
		for _, r := range e.Report() {
			sums[r.Item] += r.F
		}
	}
	for _, b := range w.sealed {
		if e, err := w.decode(b); err == nil {
			add(e)
		}
	}
	add(w.live.eng)
	out := make([]core.ItemEstimate, 0, len(sums))
	for item, f := range sums {
		out = append(out, core.ItemEstimate{Item: item, F: f})
	}
	core.SortEstimates(out)
	return out
}

// Len is the covered mass — the stream length a Report answers for. It
// satisfies the shard.Engine contract, so a sharded container computes
// its global threshold against the summed covered mass.
func (w *Window) Len() uint64 {
	_ = w.advance()
	return w.covered()
}

// Total is the number of items ever inserted, including retired mass.
func (w *Window) Total() uint64 { return w.total }

// Geometry returns the window configuration: the count window (0 in
// time mode), the duration (0 in count mode), and the granularity B.
// Restore callers use it to cross-check outer framing against the
// snapshot's own record.
func (w *Window) Geometry() (lastN uint64, lastDuration time.Duration, buckets int) {
	return w.opts.LastN, w.opts.LastDuration, w.opts.Buckets
}

// ModelBits sums the live buckets' sketch sizes under the paper's
// accounting: a B-bucket window honestly costs B+1 sketches. A sealed
// bucket is charged what its engine was charged when it sealed.
func (w *Window) ModelBits() int64 {
	_ = w.advance()
	total := w.live.eng.ModelBits()
	for _, b := range w.sealed {
		total += b.bits
	}
	return total
}

// Stats describes the current window coverage.
func (w *Window) Stats() Stats {
	_ = w.advance()
	oldest := w.oldest()
	s := Stats{
		Covered:        w.covered(),
		Total:          w.total,
		Retired:        w.retired,
		RetiredBuckets: w.retiredBuckets,
		Buckets:        len(w.sealed) + 1,
		OldestMass:     oldest.count,
		CoveredMin:     w.covered(),
		CoveredMax:     w.covered(),
		ShareSkew:      1,
		PerShardWindow: w.opts.LastN,
	}
	if w.total > 0 {
		s.Span = w.opts.Now().Sub(oldest.start)
	}
	return s
}
