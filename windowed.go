package l1hh

import (
	"time"

	"repro/internal/merge"
	"repro/internal/shard"
	"repro/internal/window"
	"repro/internal/wire"
)

// windowConfig configures a sliding-window heavy hitters solver: the
// problem parameters of config plus the window geometry
// (WithCountWindow, WithTimeWindow, WithClock). Exactly one of Window
// and WindowDuration must be set.
type windowConfig struct {
	config
	// Window selects a count-based window: reports answer for (at
	// least) the last Window items. config.StreamLength is ignored in
	// this mode — the per-bucket solvers are sized to the window.
	Window uint64
	// WindowDuration selects a time-based window: reports answer for (at
	// least) the items of the last WindowDuration of wall time.
	// config.StreamLength must then be the expected number of items per
	// window, which sizes the per-bucket solvers (receiving more costs
	// space, never accuracy).
	WindowDuration time.Duration
	// WindowBuckets is the epoch granularity B: the report's covered
	// mass overshoots the window by at most one epoch (≤ ⌈Window/B⌉
	// items, or ≤ WindowDuration/B of time). 0 defaults to 8; choose
	// B ≥ 2ϕ/ε to keep the (ε,ϕ) boundary clean against the window
	// itself (DESIGN.md §8).
	WindowBuckets int
	// Clock overrides the window clock for time-based windows and
	// bucket metadata; nil means time.Now. It is not serialized:
	// restored solvers run on the real clock unless Unmarshal is given
	// WithClock.
	Clock func() time.Time
}

// WindowStats describes what a windowed report answers for: the covered
// mass, the total and retired mass, and the bucket geometry. See
// window.Stats for field semantics.
type WindowStats = window.Stats

// windowedSolver solves (ε,ϕ)-heavy hitters over a sliding window:
// Report answers for (at least) the last Window items or the last
// WindowDuration of wall time, not the whole stream. The stream is
// chopped into epoch buckets, each ingested by a fresh solver with the
// same seed; expired buckets retire wholesale, and a report folds the
// live buckets with the distributed tier's state-merge rules, so it
// carries the serial solver's (ε,ϕ) guarantees at m = the covered mass
// (the window plus at most one epoch — DESIGN.md §8).
//
// It is the window decorator behind the front door: New wraps it in
// windowedHH (solver.go), and a sharded windowed container runs one per
// shard. Like serialSolver, it is not safe for concurrent use.
type windowedSolver struct {
	w        *window.Window
	cfg      windowConfig
	eps, phi float64
}

// Insert processes one stream item in amortized O(1) time (every
// ⌈W/B⌉ items a bucket rotation encodes the full bucket's solver as the
// frame it keeps and allocates a fresh one).
func (h *windowedSolver) Insert(x Item) { h.w.Insert(x) }

// InsertBatch processes items in order, as one Insert per item would;
// a count window hands each bucket engine its run whole.
func (h *windowedSolver) InsertBatch(items []Item) { h.w.InsertBatch(items) }

// Report returns the heavy hitters of the covered window, in
// decreasing-estimate order. With probability ≥ 1−δ every item whose
// window frequency is ≥ ϕ·W appears, no item with covered frequency
// ≤ (ϕ−ε)·M appears (M = Len(), the covered mass), and estimates are
// within ε·M of the covered frequency. If the internal bucket fold fails
// (which cannot happen for the solvers this package builds), it degrades
// to a per-bucket union whose estimates may undercount.
func (h *windowedSolver) Report() []ItemEstimate {
	rep, err := h.w.Report()
	if err != nil {
		return h.w.ReportUnion()
	}
	return rep
}

// Eps returns the additive-error parameter ε the solver was built with.
func (h *windowedSolver) Eps() float64 { return h.eps }

// Phi returns the heaviness threshold ϕ the solver was built with.
func (h *windowedSolver) Phi() float64 { return h.phi }

// Len returns the covered mass M — the stream length a Report answers
// for: at least min(Window, Total), at most one epoch more than the
// window.
func (h *windowedSolver) Len() uint64 { return h.w.Len() }

// Window returns the configured geometry: the count window W (0 for
// time windows), the duration D (0 for count windows), and the bucket
// granularity (defaults resolved).
func (h *windowedSolver) Window() (w uint64, d time.Duration, buckets int) {
	return h.w.Geometry()
}

// WindowStats describes the current coverage: covered/retired mass,
// live bucket count, and the age of the oldest covered item.
func (h *windowedSolver) WindowStats() WindowStats { return h.w.Stats() }

// Stats returns the unified operational snapshot (see Stats).
func (h *windowedSolver) Stats() Stats {
	st := h.WindowStats()
	return Stats{
		Items: st.Total,
		Len:   st.Covered,
		Eps:   h.eps, Phi: h.phi,
		Shards:    1,
		ModelBits: h.ModelBits(),
		Window:    &st,
	}
}

// ModelBits reports the summed size of the live bucket sketches under
// the paper's accounting: a B-bucket window honestly costs B+1 sketches.
func (h *windowedSolver) ModelBits() int64 { return h.w.ModelBits() }

// MarshalBinary serializes the window configuration and every live
// bucket's solver state as a tag-4 checkpoint; Unmarshal restores a
// solver that continues the window exactly where this one stopped.
func (h *windowedSolver) MarshalBinary() ([]byte, error) {
	blob, err := h.w.MarshalBinary()
	if err != nil {
		return nil, err
	}
	w := wire.NewWriter()
	w.F64(h.cfg.Eps)
	w.F64(h.cfg.Phi)
	w.F64(h.cfg.Delta)
	w.U64(h.cfg.StreamLength)
	w.U64(h.cfg.Universe)
	w.U64(uint64(h.cfg.Algorithm))
	w.U64(0) // the retired per-insert budget: always 0, kept for the layout
	w.U64(h.cfg.Seed)
	w.U64(h.cfg.Window)
	w.I64(int64(h.cfg.WindowDuration))
	w.U64(uint64(h.cfg.WindowBuckets))
	w.Blob(blob)
	return append([]byte{tagWindowed}, w.Bytes()...), nil
}

// ObserveArrivalStamp implements shard.ArrivalObserver: the sharded
// container stamps every dispatched batch with its global accepted-items
// count, and the window records the high-water mark against each epoch
// bucket. That is what lets the sharded report fold price this shard's
// covered mass as a share of recent global traffic and extrapolate its
// estimates (DESIGN.md §8). Single-owner use never calls it; the window
// then reports with legacy weights.
func (h *windowedSolver) ObserveArrivalStamp(stamp uint64) {
	h.w.ObserveArrivalStamp(stamp)
}

// arrivalStamps exposes the window's global-arrival accounting to the
// sharded fold: the stamp when the oldest covered bucket opened, the
// latest observed stamp, the stamp granularity, and whether the
// accounting is usable (false until stamps flow, and after a pre-stamp
// checkpoint restore).
func (h *windowedSolver) arrivalStamps() (oldest, latest, gap uint64, ok bool) {
	return h.w.ArrivalStamps()
}

// MergeEngine implements the shard-layer merge contract by refusing:
// sliding-window states are not mergeable — two nodes' windows cover
// different wall-clock slices, so folding them answers no well-defined
// window (DESIGN.md §8).
func (h *windowedSolver) MergeEngine(other shard.Engine) error {
	return h.CheckMergeEngine(other)
}

// CheckMergeEngine implements the non-mutating half of the shard merge
// contract; it always refuses (see MergeEngine).
func (h *windowedSolver) CheckMergeEngine(other shard.Engine) error {
	return merge.Incompatiblef("l1hh: sliding-window states are not mergeable (DESIGN.md §8)")
}
