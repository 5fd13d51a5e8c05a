package voting

import (
	"fmt"
	"math"

	"repro/internal/sample"
	"repro/internal/wire"
)

const marshalVersion = 1

// MarshalBinary encodes the full Borda sketch state.
func (b *BordaSketch) MarshalBinary() ([]byte, error) {
	w := wire.NewWriter()
	w.U64(marshalVersion)
	w.U64(uint64(b.cfg.N))
	w.F64(b.cfg.Eps)
	w.F64(b.cfg.Delta)
	w.U64(b.cfg.M)
	w.F64(b.cfg.SampleConst)
	b.sampler.Encode(w)
	w.U64s(b.scores)
	w.U64(b.s)
	w.U64(b.offered)
	return w.Bytes(), nil
}

// maxMarshalN bounds the candidate count a decoded sketch may claim.
// Both voting codecs allocate Θ(N) state, so the bound (together with
// the data-length cross-checks below) keeps a hostile frame from
// demanding gigabytes before the first real decode error — the same
// discipline as the l1hh window decoder's minWindowEps floor.
const maxMarshalN = 1 << 24

// validMarshalCfg range-checks the problem parameters a decoded frame
// claims, mirroring the constructors: a frame that no constructor could
// have produced is corrupt, not merely unusual. Filled SampleConst is
// always positive (the constructors default zero to a positive value
// before any marshal can happen).
func validMarshalCfg(n int, eps, delta float64, m uint64, sampleConst float64) bool {
	return n > 0 && n <= maxMarshalN &&
		eps > 0 && eps < 1 && delta > 0 && delta < 1 &&
		m > 0 && sampleConst > 0 && !math.IsNaN(sampleConst) && !math.IsInf(sampleConst, 0)
}

// UnmarshalBinary decodes state written by MarshalBinary.
func (b *BordaSketch) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	if r.U64() != marshalVersion {
		return fmt.Errorf("voting: %w", wire.ErrCorrupt)
	}
	var cfg BordaConfig
	cfg.N = int(r.U64())
	cfg.Eps = r.F64()
	cfg.Delta = r.F64()
	cfg.M = r.U64()
	cfg.SampleConst = r.F64()
	sampler := sample.DecodeSkip(r)
	scores := r.U64s()
	s := r.U64()
	offered := r.U64()
	if r.Err() != nil || !r.Done() || sampler == nil ||
		!validMarshalCfg(cfg.N, cfg.Eps, cfg.Delta, cfg.M, cfg.SampleConst) ||
		len(scores) != cfg.N {
		return fmt.Errorf("voting: %w", wire.ErrCorrupt)
	}
	*b = BordaSketch{cfg: cfg, sampler: sampler, scores: scores, s: s, offered: offered}
	return nil
}

// Params returns the configuration the sketch runs with (SampleConst
// filled), so a restored sketch's wrapper can recover the problem
// parameters without a side channel.
func (b *BordaSketch) Params() BordaConfig { return b.cfg }

// CanMerge reports whether Merge(other) would produce a sound summary,
// without mutating anything. Folding requires the full configuration to
// agree — not just N: the sample rate p derives from (Eps, Delta, M,
// SampleConst), and summing the s counters of two sketches sampling at
// different rates would mis-scale every score estimate.
func (b *BordaSketch) CanMerge(other *BordaSketch) error {
	if b.cfg != other.cfg {
		return fmt.Errorf("voting: cannot merge Borda sketches with different configurations (%+v vs %+v)",
			b.cfg, other.cfg)
	}
	return nil
}

// Merge folds other into b; both must share the full configuration (see
// CanMerge). The result summarizes the concatenated vote streams (exact
// Borda counters are linear; the merged sample is the union of two
// independent samples at the same rate).
func (b *BordaSketch) Merge(other *BordaSketch) error {
	if err := b.CanMerge(other); err != nil {
		return err
	}
	for i := range b.scores {
		b.scores[i] += other.scores[i]
	}
	b.s += other.s
	b.offered += other.offered
	return nil
}

// MarshalBinary encodes the full maximin sketch state (including stored
// votes or the pairwise matrix).
func (m *MaximinSketch) MarshalBinary() ([]byte, error) {
	w := wire.NewWriter()
	w.U64(marshalVersion)
	w.U64(uint64(m.cfg.N))
	w.F64(m.cfg.Eps)
	w.F64(m.cfg.Delta)
	w.U64(m.cfg.M)
	w.F64(m.cfg.SampleConst)
	w.Bool(m.cfg.Pairwise)
	m.sampler.Encode(w)
	if m.cfg.Pairwise {
		for _, row := range m.pair {
			w.U64s(row)
		}
	} else {
		w.U64(uint64(len(m.votes) / m.cfg.N))
		for _, c := range m.votes {
			w.U64(uint64(c))
		}
	}
	w.U64(m.s)
	w.U64(m.offered)
	return w.Bytes(), nil
}

// UnmarshalBinary decodes state written by MarshalBinary.
func (m *MaximinSketch) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	if r.U64() != marshalVersion {
		return fmt.Errorf("voting: %w", wire.ErrCorrupt)
	}
	var cfg MaximinConfig
	cfg.N = int(r.U64())
	cfg.Eps = r.F64()
	cfg.Delta = r.F64()
	cfg.M = r.U64()
	cfg.SampleConst = r.F64()
	cfg.Pairwise = r.Bool()
	sampler := sample.DecodeSkip(r)
	if r.Err() != nil || sampler == nil ||
		!validMarshalCfg(cfg.N, cfg.Eps, cfg.Delta, cfg.M, cfg.SampleConst) {
		return fmt.Errorf("voting: %w", wire.ErrCorrupt)
	}
	out := MaximinSketch{cfg: cfg, sampler: sampler}
	if cfg.Pairwise {
		// A pairwise frame carries N rows of ≥ 1 byte each; a claimed N
		// beyond the remaining bytes cannot be valid — fail before the
		// Θ(N) row allocation, not after.
		if uint64(cfg.N) > uint64(len(data)) {
			return fmt.Errorf("voting: %w", wire.ErrCorrupt)
		}
		out.pair = make([][]uint64, cfg.N)
		for i := range out.pair {
			out.pair[i] = r.U64s()
			if r.Err() != nil || len(out.pair[i]) != cfg.N {
				return fmt.Errorf("voting: %w", wire.ErrCorrupt)
			}
		}
	} else {
		nv := r.U64()
		// Every stored vote takes ≥ N bytes (one varint per candidate),
		// so a vote count or arity beyond the remaining data is corrupt;
		// checking both before allocating bounds the one nv·N sample
		// allocation by the input size.
		if r.Err() != nil || nv > uint64(len(data)) ||
			(nv > 0 && uint64(cfg.N) > uint64(len(data))/nv) {
			return fmt.Errorf("voting: %w", wire.ErrCorrupt)
		}
		out.votes = make([]uint32, nv*uint64(cfg.N))
		for off := 0; off < len(out.votes); off += cfg.N {
			v := Ranking(out.votes[off : off+cfg.N])
			for j := range v {
				v[j] = uint32(r.U64())
			}
			if r.Err() != nil || v.Validate(cfg.N) != nil {
				return fmt.Errorf("voting: %w", wire.ErrCorrupt)
			}
		}
	}
	out.s = r.U64()
	out.offered = r.U64()
	if r.Err() != nil || !r.Done() {
		return fmt.Errorf("voting: %w", wire.ErrCorrupt)
	}
	*m = out
	return nil
}

// Params returns the configuration the sketch runs with (SampleConst
// filled), so a restored sketch's wrapper can recover the problem
// parameters without a side channel.
func (m *MaximinSketch) Params() MaximinConfig { return m.cfg }
