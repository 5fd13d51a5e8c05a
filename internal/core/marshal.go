package core

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"repro/internal/hash"
	"repro/internal/mg"
	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/wire"
)

// The binary encodings below capture the complete solver state — tables,
// hash seeds, sampler position and PRNG state — so an unmarshalled solver
// continues the stream exactly where the original stopped and reports
// identically. This is the literal form of the paper's communication
// arguments (§4): Alice's one-way message is MarshalBinary's output.

const marshalVersion = 1

// optimalMarshalVersion guards Algorithm 2's layout separately: v2 added
// the sparse pre-credit rows deposited by Merge. Decoding still accepts
// v1 (a pre-merge-tier checkpoint is a v2 one with no credit), so PR 1
// era snapshots survive the upgrade.
const optimalMarshalVersion = 2

func encodeConfig(w *wire.Writer, c Config) {
	w.F64(c.Eps)
	w.F64(c.Phi)
	w.F64(c.Delta)
	w.U64(c.M)
	w.U64(c.N)
	w.F64(c.Tuning.A1SampleConst)
	w.F64(c.Tuning.A1TableFactor)
	w.F64(c.Tuning.A1HashRangeConst)
	w.F64(c.Tuning.A2SampleConst)
	w.F64(c.Tuning.A2BucketFactor)
	w.F64(c.Tuning.A2RepFactor)
	w.F64(c.Tuning.T2Rate)
}

func decodeConfig(r *wire.Reader) Config {
	var c Config
	c.Eps = r.F64()
	c.Phi = r.F64()
	c.Delta = r.F64()
	c.M = r.U64()
	c.N = r.U64()
	c.Tuning.A1SampleConst = r.F64()
	c.Tuning.A1TableFactor = r.F64()
	c.Tuning.A1HashRangeConst = r.F64()
	c.Tuning.A2SampleConst = r.F64()
	c.Tuning.A2BucketFactor = r.F64()
	c.Tuning.A2RepFactor = r.F64()
	c.Tuning.T2Rate = r.F64()
	return c
}

// MarshalBinary encodes the full Algorithm 1 state.
func (a *SimpleList) MarshalBinary() ([]byte, error) {
	w := wire.NewWriter()
	w.U64(marshalVersion)
	encodeConfig(w, a.cfg)
	a.sampler.Encode(w)
	a.h.Encode(w)
	w.U64(uint64(a.tableLen))
	w.Map(a.t1)
	w.Map(a.t2)
	w.U64(uint64(a.t2Cap))
	w.U64(a.s)
	w.U64(a.offered)
	w.U64(a.hashRange)
	return w.Bytes(), nil
}

// UnmarshalBinary decodes state written by MarshalBinary, replacing the
// receiver.
func (a *SimpleList) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	if r.U64() != marshalVersion {
		return fmt.Errorf("core: %w", wire.ErrCorrupt)
	}
	cfg := decodeConfig(r)
	sampler := sample.DecodeSkip(r)
	h := hash.DecodeFunc(r)
	tableLen := r.U64()
	t1 := r.Map()
	t2 := r.Map()
	t2Cap := r.U64()
	s := r.U64()
	offered := r.U64()
	hashRange := r.U64()
	if r.Err() != nil || !r.Done() || sampler == nil ||
		hashRange < 2 || !h.Valid() || h.Range() != hashRange {
		return fmt.Errorf("core: %w", wire.ErrCorrupt)
	}
	*a = SimpleList{
		cfg: cfg, sampler: sampler, h: h, tableLen: int(tableLen),
		t1: t1, t2: t2, t2Cap: int(t2Cap), s: s, offered: offered,
		hashRange: hashRange,
	}
	return nil
}

// MarshalBinary encodes the full ε-Maximum state.
func (a *Maximum) MarshalBinary() ([]byte, error) {
	w := wire.NewWriter()
	w.U64(marshalVersion)
	encodeConfig(w, a.cfg)
	a.sampler.Encode(w)
	a.h.Encode(w)
	w.U64(uint64(a.tableLen))
	w.Map(a.t1)
	w.U64(a.maxID)
	w.U64(a.maxHash)
	w.Bool(a.haveMax)
	w.U64(a.s)
	w.U64(a.offered)
	w.U64(a.hashRng)
	return w.Bytes(), nil
}

// UnmarshalBinary decodes state written by MarshalBinary.
func (a *Maximum) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	if r.U64() != marshalVersion {
		return fmt.Errorf("core: %w", wire.ErrCorrupt)
	}
	cfg := decodeConfig(r)
	sampler := sample.DecodeSkip(r)
	h := hash.DecodeFunc(r)
	tableLen := r.U64()
	t1 := r.Map()
	maxID := r.U64()
	maxHash := r.U64()
	haveMax := r.Bool()
	s := r.U64()
	offered := r.U64()
	hashRng := r.U64()
	// Reject parameter combinations no constructor could have produced
	// (mirroring NewMaximum's validation): the decoded cfg feeds the
	// wrapper's universe bound and error bars, so hostile values must not
	// restore.
	if r.Err() != nil || !r.Done() || sampler == nil ||
		hashRng < 2 || !h.Valid() || h.Range() != hashRng ||
		cfg.Eps <= 0 || cfg.Eps >= 1 || cfg.Delta <= 0 || cfg.Delta >= 1 ||
		cfg.M == 0 || cfg.N == 0 {
		return fmt.Errorf("core: %w", wire.ErrCorrupt)
	}
	*a = Maximum{
		cfg: cfg, sampler: sampler, h: h, tableLen: int(tableLen), t1: t1,
		maxID: maxID, maxHash: maxHash, haveMax: haveMax,
		s: s, offered: offered, hashRng: hashRng,
	}
	return nil
}

// MarshalBinary encodes the full Algorithm 2 state, including every
// accelerated counter epoch and any merge-deposited pre-credit (encoded
// sparsely: the rows are nil unless the instance was merged, and non-zero
// only in buckets both sides had populated).
func (o *Optimal) MarshalBinary() ([]byte, error) {
	w := wire.NewWriter()
	w.U64(optimalMarshalVersion)
	encodeConfig(w, o.cfg)
	o.sampler.Encode(w)
	o.t1.Encode(w)
	w.U64(uint64(o.reps))
	w.U64(o.u)
	// T3 goes out densely, every bucket's row in (rep, bucket) order:
	// walking the sorted keys, each run of absent rows between two
	// present ones is written as that many empty rows at once.
	keys := slices.Sorted(maps.Keys(o.t3))
	for j := 0; j < o.reps; j++ {
		o.hashes[j].Encode(w)
		o.t2.encodeRow(w, j)
		next, end := uint64(j)*o.u, uint64(j+1)*o.u
		for ; len(keys) > 0 && keys[0] < end; keys = keys[1:] {
			w.EmptySlices(int(keys[0] - next))
			w.U32s(o.t3[keys[0]])
			next = keys[0] + 1
		}
		w.EmptySlices(int(end - next))
		o.pre.encodeSparseRow(w, j)
	}
	w.U64(uint64(o.epsK))
	w.F64(o.epsEff)
	w.F64(o.base)
	w.U64(o.src.State())
	w.U64(o.s)
	w.U64(o.offered)
	w.U64(uint64(o.maxEpoch))
	return w.Bytes(), nil
}

// UnmarshalBinary decodes state written by MarshalBinary (current or v1
// layout).
func (o *Optimal) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	version := r.U64()
	if r.Err() != nil {
		return fmt.Errorf("core: %w", wire.ErrCorrupt)
	}
	if version != 1 && version != optimalMarshalVersion {
		return fmt.Errorf("core: unsupported solver encoding version %d", version)
	}
	cfg := decodeConfig(r)
	sampler := sample.DecodeSkip(r)
	t1 := mg.DecodeSummary(r)
	reps := r.U64()
	u := r.U64()
	if r.Err() != nil || t1 == nil || sampler == nil ||
		reps == 0 || reps > 1<<16 || u == 0 || u > 1<<30 {
		return fmt.Errorf("core: %w", wire.ErrCorrupt)
	}
	hashes := make([]hash.Func, reps)
	t2 := newCellGrid(int(reps), u)
	t3 := make(map[uint64][]uint32)
	pre := newCellGrid(int(reps), u)
	for j := 0; j < int(reps); j++ {
		hashes[j] = hash.DecodeFunc(r)
		// The bucket hash indexes the T2 rows and keys T3 directly, so it
		// must be a member of the family with range exactly u.
		if !t2.decodeRow(r, j) || !hashes[j].Valid() || hashes[j].Range() != u {
			return fmt.Errorf("core: %w", wire.ErrCorrupt)
		}
		for i := uint64(0); i < u; i++ {
			if row := r.U32s(); len(row) > 0 {
				t3[uint64(j)*u+i] = row
			}
		}
		// v1 predates the pre-credit rows.
		if version >= 2 && !pre.decodeSparseRow(r, j) {
			return fmt.Errorf("core: %w", wire.ErrCorrupt)
		}
	}
	epsK := r.U64()
	epsEff := r.F64()
	base := r.F64()
	srcState := r.U64()
	s := r.U64()
	offered := r.U64()
	maxEpoch := r.U64()
	if r.Err() != nil || !r.Done() {
		return fmt.Errorf("core: %w", wire.ErrCorrupt)
	}
	// The epoch machinery divides by base and extends T3 rows out to the
	// epoch index, so hostile values (base ≤ 0 or NaN makes epoch() +Inf,
	// an unbounded row-extension loop) must be rejected, and epsEff must
	// be the power of two epsK claims. Legitimate encodings always have
	// base ≥ minEpochBase.
	if epsK > 62 || epsEff != math.Ldexp(1, -int(epsK)) || !(base >= 1) || math.IsInf(base, 0) {
		return fmt.Errorf("core: %w", wire.ErrCorrupt)
	}
	*o = Optimal{
		cfg: cfg, sampler: sampler, t1: t1, hashes: hashes,
		t2: t2, t3: t3, buckets: make([]uint64, reps), u: u, reps: int(reps),
		epsK: uint(epsK), epsEff: epsEff, base: base,
		src: rng.FromState(srcState), s: s, offered: offered,
		maxEpoch: int(maxEpoch), pre: pre,
	}
	o.initEpochs()
	return nil
}
