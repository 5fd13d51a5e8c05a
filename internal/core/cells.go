package core

import (
	"math"

	"repro/internal/wire"
)

// escapeByte marks an escaped cell of a cellGrid: one whose value does
// not fit below it, so its full value lives in the grid's escape table.
const escapeByte = math.MaxUint8

// cellGrid is a reps × u grid of uint32 counters stored at one byte per
// cell, Algorithm 2's layout for T2 and the merge credit. A T2 cell grows
// at rate ε per arrival in its bucket, so nearly every cell stays below
// escapeByte; the few that reach it are escaped. Cells only grow, so an
// escaped cell keeps its escapeByte, and a stale table entry (left only
// by a uint32 increment wrapping to zero) is never read and is
// overwritten if the cell escapes again. The layout is invisible: every
// reader goes through at, and the codec writes each cell's full value.
type cellGrid struct {
	rows [][]uint8 // [rep][bucket]; a nil row holds only zeros
	esc  escTable  // rep·u + bucket → value of each escaped cell
	u    uint64
}

// newCellGrid returns a grid of zeros with no rows allocated.
func newCellGrid(reps int, u uint64) cellGrid {
	return cellGrid{rows: make([][]uint8, reps), u: u}
}

// row returns row j, allocating it on first use.
func (g *cellGrid) row(j int) []uint8 {
	if g.rows[j] == nil {
		g.rows[j] = make([]uint8, g.u)
	}
	return g.rows[j]
}

// at returns the value of cell (j, i).
func (g *cellGrid) at(j int, i uint64) uint32 {
	if g.rows[j] == nil {
		return 0
	}
	return g.value(j, i, g.rows[j][i])
}

// value returns the value of cell (j, i), whose byte is c.
func (g *cellGrid) value(j int, i uint64, c uint8) uint32 {
	if c != escapeByte {
		return uint32(c)
	}
	return g.esc.get(uint64(j)*g.u + i)
}

// set stores v in cell (j, i), allocating its row on first use.
func (g *cellGrid) set(j int, i uint64, v uint32) {
	if v < escapeByte {
		g.row(j)[i] = uint8(v)
		return
	}
	g.row(j)[i] = escapeByte
	g.esc.put(uint64(j)*g.u+i, v)
}

// bits charges row j's cells under cellBits; a nil row costs nothing.
func (g *cellGrid) bits(j int) int64 {
	var b int64
	for i, c := range g.rows[j] {
		b += cellBits(uint64(g.value(j, uint64(i), c)))
	}
	return b
}

// encodeRuns writes row j as zero runs, the v3 layout of T2 and the
// credit: each non-zero cell as the count of zero cells since the
// previous non-zero one, then its value; a row that ends in zeros then
// closes with the length of that last run. A nil or all-zero row is one
// run of u. It walks the byte row once, since snapshots encode inside
// the shard barrier.
func (g *cellGrid) encodeRuns(w *wire.Writer, j int) {
	next := 0
	for i, c := range g.rows[j] {
		if c == 0 {
			continue
		}
		w.U64(uint64(i - next))
		w.U64(uint64(g.value(j, uint64(i), c)))
		next = i + 1
	}
	if uint64(next) < g.u {
		w.U64(g.u - uint64(next))
	}
}

// decodeRuns reads a row written by encodeRuns into row j, allocating
// the row only for a non-zero cell; false on corrupt input: a read
// error, a run past the end of the row, or a cell of zero or above
// MaxUint32.
func (g *cellGrid) decodeRuns(r *wire.Reader, j int) bool {
	for i := uint64(0); i < g.u; i++ {
		z := r.U64()
		if z > g.u-i {
			return false
		}
		if i += z; i == g.u {
			break
		}
		v := r.U64()
		if v == 0 || v > math.MaxUint32 {
			return false
		}
		g.set(j, i, uint32(v))
	}
	return r.Err() == nil
}

// decodeRow reads a v1 or v2 T2 row into row j: the length u, then one
// uvarint per cell, as wire.Writer.U32s writes the widened row. It is
// false on corrupt input: a length other than u, a truncated row or a
// cell above MaxUint32.
func (g *cellGrid) decodeRow(r *wire.Reader, j int) bool {
	if r.Length() != g.u {
		return false
	}
	row := make([]uint8, g.u)
	g.rows[j] = row
	for i := range row {
		switch v := r.U64(); {
		case v < escapeByte:
			row[i] = uint8(v)
		case v > math.MaxUint32:
			return false
		default:
			g.set(j, uint64(i), uint32(v))
		}
	}
	return r.Err() == nil
}

// decodeSparseRow reads a v2 credit row into row j, leaving an empty
// row nil: a count, then (index, value) pairs in ascending index order.
// It is false on corrupt input: a read error, an index out of range or
// out of order, a zero or oversized value.
func (g *cellGrid) decodeSparseRow(r *wire.Reader, j int) bool {
	n := r.U64()
	if r.Err() != nil || n > g.u {
		return false
	}
	last := int64(-1)
	for ; n > 0; n-- {
		i := r.U64()
		v := r.U64()
		if r.Err() != nil || i >= g.u || int64(i) <= last || v == 0 || v > math.MaxUint32 {
			return false
		}
		g.set(j, i, uint32(v))
		last = int64(i)
	}
	return r.Err() == nil
}

// escTable maps the key of each escaped cell to its value: open
// addressing with linear probing, a Fibonacci-hashed home slot, and at
// most half the slots full. A zero value marks an empty slot, which no
// escaped value is. The slot order never reaches an output.
type escTable struct {
	slots []escSlot // len is zero or a power of two
	n     int       // occupied slots
	shift uint8     // 64 − log₂ len(slots)
}

// escSlot is one (key, value) entry; a zero value marks an empty slot.
type escSlot struct {
	key uint64
	v   uint32
}

// find returns the slot holding key, or the empty slot ending its probe
// sequence. The table must have slots.
func (t *escTable) find(key uint64) int {
	mask := len(t.slots) - 1
	i := int((key * 0x9E3779B97F4A7C15) >> (t.shift & 63))
	for t.slots[i].v != 0 && t.slots[i].key != key {
		i = (i + 1) & mask
	}
	return i
}

// get returns key's value, 0 if absent. The table must have slots, as
// it does once any cell has escaped.
func (t *escTable) get(key uint64) uint32 {
	return t.slots[t.find(key)].v
}

// put stores v ≠ 0 under key, doubling the table first when a new key
// would pass half full.
func (t *escTable) put(key uint64, v uint32) {
	if t.n > 0 {
		if i := t.find(key); t.slots[i].v != 0 {
			t.slots[i].v = v
			return
		}
	}
	if 2*(t.n+1) > len(t.slots) {
		old := t.slots
		lg := 3
		if len(old) > 0 {
			lg = 64 - int(t.shift) + 1
		}
		t.slots = make([]escSlot, 1<<lg)
		t.shift = uint8(64 - lg)
		for _, s := range old {
			if s.v != 0 {
				t.slots[t.find(s.key)] = s
			}
		}
	}
	t.slots[t.find(key)] = escSlot{key, v}
	t.n++
}
