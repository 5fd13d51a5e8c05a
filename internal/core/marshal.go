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

// optimalMarshalVersion guards Algorithm 2's layout separately. v2
// added the sparse pre-credit rows deposited by Merge; v3 writes T2 and
// the credit as zero runs and T3 as its present rows only, so a frame
// grows with the cells in use rather than with R·u. Decoding still
// accepts v1 (a pre-merge-tier checkpoint is a v2 one with no credit)
// and v2, and a restored engine re-marshals as v3.
const optimalMarshalVersion = 3

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

// encodeHead writes the fields Algorithm 1 and ε-Maximum checkpoints
// open with: the version, the config, the sampler, the hash, the T1
// width and T1's counters, the last as wire.Writer.Map writes a map.
func (c *hashedMG) encodeHead(w *wire.Writer) {
	w.U64(marshalVersion)
	encodeConfig(w, c.cfg)
	c.sampler.Encode(w)
	c.h.Encode(w)
	w.U64(uint64(c.t1.K()))
	c.t1.EncodeCounters(w)
}

// encodeTail writes the fields both layouts close with: the sample
// size, the stream positions and the hash range.
func (c *hashedMG) encodeTail(w *wire.Writer) {
	w.U64(c.t1.Len())
	w.U64(c.offered)
	w.U64(c.h.Range())
}

// decodeHashedMG reads a checkpoint encodeHead, then the solver's own
// fields (which body reads), then encodeTail wrote. It is false on any
// shared state no constructor produces: a Config that validate(needPhi)
// refuses or would change, a hash whose range is not the stored one,
// and a T1 that mg.FromCounters refuses.
func decodeHashedMG(data []byte, needPhi bool, body func(*wire.Reader)) (c hashedMG, ok bool) {
	r := wire.NewReader(data)
	version := r.U64()
	c.cfg = decodeConfig(r)
	c.sampler = sample.DecodeSkip(r)
	c.h = hash.DecodeFunc(r)
	k, counters := r.U64(), r.Map()
	body(r)
	s, offered, hashRange := r.U64(), r.U64(), r.U64()
	valid := c.cfg
	if version != marshalVersion || !r.Done() || c.sampler == nil ||
		hashRange < 2 || !c.h.Valid() || c.h.Range() != hashRange ||
		valid.validate(needPhi) != nil || valid != c.cfg {
		return c, false
	}
	c.t1, c.offered = mg.FromCounters(k, hashRange, s, counters), offered
	return c, c.t1 != nil
}

// MarshalBinary encodes the full Algorithm 1 state.
func (a *SimpleList) MarshalBinary() ([]byte, error) {
	w := wire.NewWriter()
	a.encodeHead(w)
	w.Map(a.t2)
	w.U64(uint64(a.t2Cap))
	a.encodeTail(w)
	return w.Bytes(), nil
}

// UnmarshalBinary decodes state written by MarshalBinary, replacing the
// receiver. Besides decodeHashedMG's checks it refuses what no build
// reaches and a merge would index T2 by: a T2 capacity of 0 or above
// MaxInt, more T2 entries than that, and a T2 entry T1 does not hold.
func (a *SimpleList) UnmarshalBinary(data []byte) error {
	var t2 map[uint64]uint64
	var t2Cap uint64
	base, ok := decodeHashedMG(data, true, func(r *wire.Reader) { t2, t2Cap = r.Map(), r.U64() })
	ok = ok && t2Cap > 0 && t2Cap <= math.MaxInt && uint64(len(t2)) <= t2Cap
	for hx := range t2 {
		ok = ok && base.t1.Estimate(hx) != 0
	}
	if !ok {
		return fmt.Errorf("core: %w", wire.ErrCorrupt)
	}
	*a = SimpleList{hashedMG: base, t2: t2, t2Cap: int(t2Cap)}
	return nil
}

// MarshalBinary encodes the full ε-Maximum state.
func (a *Maximum) MarshalBinary() ([]byte, error) {
	w := wire.NewWriter()
	a.encodeHead(w)
	w.U64(a.maxID)
	w.U64(a.maxHash)
	w.Bool(a.haveMax)
	a.encodeTail(w)
	return w.Bytes(), nil
}

// UnmarshalBinary decodes state written by MarshalBinary. Besides
// decodeHashedMG's checks it refuses an argmax T1 does not hold.
func (a *Maximum) UnmarshalBinary(data []byte) error {
	var maxID, maxHash uint64
	var haveMax bool
	base, ok := decodeHashedMG(data, false, func(r *wire.Reader) {
		maxID, maxHash, haveMax = r.U64(), r.U64(), r.Bool()
	})
	if !ok || haveMax && base.t1.Estimate(maxHash) == 0 {
		return fmt.Errorf("core: %w", wire.ErrCorrupt)
	}
	*a = Maximum{hashedMG: base, maxID: maxID, maxHash: maxHash, haveMax: haveMax}
	return nil
}

// MarshalBinary encodes the full Algorithm 2 state, including every
// accelerated counter epoch and any merge-deposited pre-credit. Each
// repetition writes its bucket hash, its T2 row as zero runs, its
// present T3 rows and its credit row as zero runs, so an empty cell
// costs nothing beyond the run it extends.
func (o *Optimal) MarshalBinary() ([]byte, error) {
	w := wire.NewWriter()
	o.encodeHead(w, optimalMarshalVersion)
	keys := slices.Sorted(maps.Keys(o.t3))
	for j := 0; j < o.reps; j++ {
		o.hashes[j].Encode(w)
		o.t2.encodeRuns(w, j)
		keys = o.encodeT3(w, j, keys)
		o.pre.encodeRuns(w, j)
	}
	o.encodeTail(w)
	return w.Bytes(), nil
}

// encodeHead writes the fields every Optimal layout opens with: the
// version, the config, the sampler, T1 and the grid shape.
func (o *Optimal) encodeHead(w *wire.Writer, version uint64) {
	w.U64(version)
	encodeConfig(w, o.cfg)
	o.sampler.Encode(w)
	o.t1.Encode(w)
	w.U64(uint64(o.reps))
	w.U64(o.u)
}

// encodeT3 writes repetition j's present T3 rows: their count, then
// each as the gap from the previous present bucket and the row. keys
// holds the sorted T3 keys from repetition j on; the rest is returned.
func (o *Optimal) encodeT3(w *wire.Writer, j int, keys []uint64) []uint64 {
	n, _ := slices.BinarySearch(keys, uint64(j+1)*o.u)
	w.U64(uint64(n))
	next := uint64(j) * o.u
	for _, key := range keys[:n] {
		w.U64(key - next)
		w.U32s(o.t3[key])
		next = key + 1
	}
	return keys[n:]
}

// encodeTail writes the fields every Optimal layout closes with: the
// coin rate, the epoch base, the PRNG state and the counters.
func (o *Optimal) encodeTail(w *wire.Writer) {
	w.U64(uint64(o.epsK))
	w.F64(o.epsEff)
	w.F64(o.base)
	w.U64(o.src.State())
	w.U64(o.s)
	w.U64(o.offered)
	w.U64(uint64(o.maxEpoch))
}

// optimalHead is the opening of every Optimal layout, as encodeHead
// writes it.
type optimalHead struct {
	version uint64
	cfg     Config
	sampler *sample.Skip
	t1      *mg.Summary
	reps, u uint64
}

// decodeOptimalHead reads the fields encodeHead writes. It refuses a
// Config that validate refuses or would change, as decodeHashedMG does,
// and bounds the grid the fields declare by MaxGridCells, before
// anything proportional to it is allocated.
func decodeOptimalHead(r *wire.Reader) (optimalHead, error) {
	var h optimalHead
	h.version = r.U64()
	if r.Err() != nil {
		return h, fmt.Errorf("core: %w", wire.ErrCorrupt)
	}
	if h.version < 1 || h.version > optimalMarshalVersion {
		return h, fmt.Errorf("core: unsupported solver encoding version %d", h.version)
	}
	h.cfg = decodeConfig(r)
	h.sampler = sample.DecodeSkip(r)
	h.t1 = mg.DecodeSummary(r)
	h.reps = r.U64()
	h.u = r.U64()
	valid := h.cfg
	if r.Err() != nil || h.t1 == nil || h.sampler == nil ||
		valid.validate(true) != nil || valid != h.cfg ||
		h.reps == 0 || h.reps > 1<<16 || h.u == 0 || h.u > MaxGridCells/h.reps {
		return h, fmt.Errorf("core: %w", wire.ErrCorrupt)
	}
	return h, nil
}

// FrameGridCells returns R·u, the grid cells an Optimal frame of any
// version declares, from its header alone; its error is the one
// UnmarshalBinary returns for that header. A container sums it over its
// frames to refuse, before decoding any, a set that together claims
// more than MaxGridCells.
func FrameGridCells(data []byte) (uint64, error) {
	h, err := decodeOptimalHead(wire.NewReader(data))
	if err != nil {
		return 0, err
	}
	return h.reps * h.u, nil
}

// UnmarshalBinary decodes state written by MarshalBinary (current, v2 or
// v1 layout).
func (o *Optimal) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	h, err := decodeOptimalHead(r)
	if err != nil {
		return err
	}
	version, reps, u := h.version, h.reps, h.u
	hashes := make([]hash.Func, reps)
	t2 := newCellGrid(int(reps), u)
	t3 := make(map[uint64][]uint32)
	pre := newCellGrid(int(reps), u)
	for j := 0; j < int(reps); j++ {
		hashes[j] = hash.DecodeFunc(r)
		// The bucket hash indexes the T2 rows and keys T3 directly, so it
		// must be a member of the family with range exactly u.
		if !hashes[j].Valid() || hashes[j].Range() != u {
			return fmt.Errorf("core: %w", wire.ErrCorrupt)
		}
		var ok bool
		if version < 3 {
			// v1 predates the pre-credit rows.
			ok = t2.decodeRow(r, j) && decodeDenseT3(r, t3, j, u) &&
				(version == 1 || pre.decodeSparseRow(r, j))
		} else {
			ok = t2.decodeRuns(r, j) && decodeT3(r, t3, j, u) && pre.decodeRuns(r, j)
		}
		if !ok {
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
		cfg: h.cfg, sampler: h.sampler, t1: h.t1, hashes: hashes,
		t2: t2, t3: t3, buckets: make([]uint64, reps), u: u, reps: int(reps),
		epsK: uint(epsK), epsEff: epsEff, base: base,
		src: rng.FromState(srcState), s: s, offered: offered,
		maxEpoch: int(maxEpoch), pre: pre,
	}
	o.initEpochs()
	return nil
}

// decodeT3 reads repetition j's T3 rows as MarshalBinary writes them: a
// count, then (gap from the previous present bucket, row) pairs. It is
// false on corrupt input: a bucket past u, which a count above u must
// reach, or an empty row, which the encoder never writes.
func decodeT3(r *wire.Reader, t3 map[uint64][]uint32, j int, u uint64) bool {
	next := uint64(0)
	for n := r.U64(); n > 0; n-- {
		gap := r.U64()
		row := r.U32s()
		if r.Err() != nil || gap >= u-next || len(row) == 0 {
			return false
		}
		next += gap
		t3[uint64(j)*u+next] = row
		next++
	}
	return r.Err() == nil
}

// decodeDenseT3 reads repetition j's T3 rows in the v1 and v2 layout:
// one length-prefixed row per bucket, empty ones included.
func decodeDenseT3(r *wire.Reader, t3 map[uint64][]uint32, j int, u uint64) bool {
	for i := uint64(0); i < u && r.Err() == nil; i++ {
		if row := r.U32s(); len(row) > 0 {
			t3[uint64(j)*u+i] = row
		}
	}
	return r.Err() == nil
}
