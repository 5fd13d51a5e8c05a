package l1hh

import (
	"encoding"

	"repro/internal/core"
	"repro/internal/shard"
)

// Item identifies a universe element; items are ids in [0, Universe).
type Item = uint64

// ItemEstimate pairs a reported item with its estimated absolute
// frequency over the stream.
type ItemEstimate = core.ItemEstimate

// Algorithm selects the heavy hitters engine.
type Algorithm int

// Engines for the heavy hitters solvers.
const (
	// AlgorithmOptimal is the paper's Algorithm 2 (Theorem 2):
	// O(ε⁻¹·log ϕ⁻¹ + ϕ⁻¹·log n + log log m) bits, optimal.
	AlgorithmOptimal Algorithm = iota
	// AlgorithmSimple is the paper's Algorithm 1 (Theorem 1): slightly
	// more space (an additive ε⁻¹·log log δ⁻¹), much simpler machinery.
	AlgorithmSimple
)

// config is the resolved problem statement of one heavy hitters engine,
// filled from the options by New (settings.cfg) and from the checkpoint
// frames on restore. The sharded and windowed builders derive their
// per-shard and per-bucket configs from it.
type config struct {
	// Eps is the additive error ε ∈ (0,1); for heavy hitters it must
	// be below Phi.
	Eps float64
	// Phi is the heaviness threshold ϕ ∈ (ε, 1].
	Phi float64
	// Delta is the failure probability δ ∈ (0,1); 0 defaults to 0.05.
	Delta float64
	// StreamLength is the number of items that will be inserted. Zero
	// means unknown: the solver switches to the Theorem 7/8 machinery
	// (Morris counter + staggered instances).
	StreamLength uint64
	// Universe is the number of distinct ids; items must lie in
	// [0, Universe).
	Universe uint64
	// Algorithm selects the engine for the heavy hitters solvers.
	Algorithm Algorithm
	// Seed makes every random choice reproducible.
	Seed uint64
}

func (c *config) fill() {
	if c.Delta == 0 {
		c.Delta = 0.05
	}
}

// serialSolver solves the (ε,ϕ)-heavy hitters problem in one pass. It is
// the serial engine behind the front door: New wraps it in one of the
// serial adapters (solver.go), and the sharded and windowed containers
// run one per shard or bucket.
type serialSolver struct {
	// e is the engine: *core.Optimal, *core.SimpleList, or the
	// unknown-length *unknown.ListHH.
	e hhEngine
	// tag is the engine's checkpoint tag (tagOptimal or tagSimple); 0
	// marks the unknown-length engine, which neither serializes nor
	// merges.
	tag byte

	// eps and phi are the problem parameters the solver was built with,
	// recovered from the engine state on restore.
	eps, phi float64
}

// hhEngine is the method set the heavy hitters engines share —
// *core.Optimal, *core.SimpleList and *unknown.ListHH — which is also
// the shard layer's engine contract.
type hhEngine = shard.Engine

// MarshalBinary serializes the solver's complete state (tables, hash
// seeds, sampler position) as a tag 1–2 checkpoint. Only
// known-stream-length solvers are serializable.
func (h *serialSolver) MarshalBinary() ([]byte, error) {
	if h.tag == 0 {
		return nil, errNotSerializable
	}
	return taggedMarshal(h.tag, h.e.(encoding.BinaryMarshaler))
}

// Insert processes one stream item in O(1) amortized time, at most one
// sampled item per call.
func (h *serialSolver) Insert(x Item) { h.e.Insert(x) }

// InsertBatch processes items in order, as one Insert per item would.
// The engine's batch path jumps from one sampled item to the next.
func (h *serialSolver) InsertBatch(items []Item) { h.e.InsertBatch(items) }

// Report returns the heavy hitters with frequency estimates, in
// decreasing-estimate order. With probability ≥ 1−δ: every item with
// f ≥ ϕ·m appears, no item with f ≤ (ϕ−ε)·m appears, and every estimate
// is within ε·m.
func (h *serialSolver) Report() []ItemEstimate { return h.e.Report() }

// ModelBits reports the sketch size under the paper's accounting.
func (h *serialSolver) ModelBits() int64 { return h.e.ModelBits() }

// Len returns the number of items inserted so far.
func (h *serialSolver) Len() uint64 { return h.e.Len() }

// Eps returns the additive-error parameter ε the solver was built with
// (preserved across checkpoint restores).
func (h *serialSolver) Eps() float64 { return h.eps }

// Phi returns the heaviness threshold ϕ the solver was built with
// (preserved across checkpoint restores).
func (h *serialSolver) Phi() float64 { return h.phi }

// Estimate returns the frequency estimate for x over the whole stream
// and its §3 point-query bound ε·max(m, Len()), m being the declared
// stream length. Only the known-length engines answer; the adapters
// that expose PointQuerier wrap nothing else.
func (h *serialSolver) Estimate(x Item) (est, bound float64) {
	e := h.e.(interface {
		Estimate(x uint64) float64
		Params() core.Config
	})
	return e.Estimate(x), h.eps * float64(max(e.Params().M, h.Len()))
}

// Stats returns the unified operational snapshot (see Stats).
func (h *serialSolver) Stats() Stats {
	n := h.Len()
	return Stats{
		Items: n, Len: n,
		Eps: h.eps, Phi: h.phi,
		Shards:    1,
		ModelBits: h.ModelBits(),
	}
}
