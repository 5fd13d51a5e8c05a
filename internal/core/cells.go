package core

import (
	"encoding/binary"
	"iter"
	"math"
	"math/bits"

	"repro/internal/wire"
)

// escapeByte marks an escaped cell of a cellGrid: one whose value does
// not fit below it, so its full value lives in the grid's escape table.
const escapeByte = math.MaxUint8

// pageShift sets the cells per page of a cellGrid: 64 one-byte cells,
// one cache line, so a sampled cell costs one page-pointer load beyond
// the byte and a page is small enough that a short stream, whose coin
// lands a few times per row, touches a small share of the grid.
const (
	pageShift = 6
	pageCells = 1 << pageShift
	pageMask  = pageCells - 1
)

// cellPage is one page of a cellGrid's cells.
type cellPage [pageCells]uint8

// next returns the offset of p's first non-zero cell at or after k, or
// pageCells if there is none. It reads the page eight cells at a time:
// a written page of a sparse grid holds a few non-zero cells, so the
// walks that look for them (Merge, ModelBits, the encoder) would
// otherwise spend their time testing zero bytes one by one.
func (p *cellPage) next(k int) int {
	for w := k &^ 7; w < pageCells; w += 8 {
		x := binary.LittleEndian.Uint64(p[w:])
		if w < k {
			x &^= 1<<(8*(k-w)) - 1
		}
		if x != 0 {
			return w + bits.TrailingZeros64(x)/8
		}
	}
	return pageCells
}

// maxSlabPages caps the pages a cellGrid allocates at once. A grid takes
// its pages from slabs that double from one page up to this size, so a
// decode or merge that writes many pages makes one allocation per 16 of
// them, and a grid holds at most 15 unwritten pages (960 bytes) or, below
// 16 written pages, fewer unwritten ones than written.
const maxSlabPages = 16

// zeroPage backs every page of every cellGrid that no write has
// reached. Nothing writes it: a cell on it takes a page of its own
// before its first non-zero value.
var zeroPage cellPage

// cellGrid is a reps × u grid of uint32 counters stored at one byte per
// cell, Algorithm 2's layout for T2 and the merge credit. A T2 cell grows
// at rate ε per arrival in its bucket, so nearly every cell stays below
// escapeByte; the few that reach it are escaped. Cells only grow, so an
// escaped cell keeps its escapeByte, and a stale table entry (left only
// by a uint32 increment wrapping to zero) is never read and is
// overwritten if the cell escapes again.
//
// The cells are paged over the flat key space rep·u + bucket, the key
// T3 and the escape table use too: the cell at key is byte key&pageMask
// of page key>>pageShift. The page table is allocated on the first
// non-zero write, with every entry at zeroPage, and a page when a
// non-zero value first lands on it. So a grid holds memory for the
// pages written, plus R·u/8 table bytes once any cell is. The layout is
// invisible: every reader goes through at, and the codec writes each
// cell's full value.
type cellGrid struct {
	pages []*cellPage // key>>pageShift → page; nil until the first non-zero write
	slab  []cellPage  // pages allocated but not yet written
	owned int         // pages written
	esc   escTable    // key → value of each escaped cell
	u     uint64
	n     uint64 // cells: reps·u
}

// newCellGrid returns a grid of zeros with no page table.
func newCellGrid(reps int, u uint64) cellGrid {
	return cellGrid{u: u, n: uint64(reps) * u}
}

// page returns the page holding key's cell, zeroPage if none is written.
func (g *cellGrid) page(key uint64) *cellPage {
	if g.pages == nil {
		return &zeroPage
	}
	return g.pages[key>>pageShift]
}

// own returns the page holding key's cell, allocating the page table
// on first use and taking the page from the slab, so the caller may
// write it.
func (g *cellGrid) own(key uint64) *cellPage {
	if g.pages == nil {
		g.pages = make([]*cellPage, (g.n+pageMask)>>pageShift)
		for i := range g.pages {
			g.pages[i] = &zeroPage
		}
	}
	p := g.pages[key>>pageShift]
	if p == &zeroPage {
		if len(g.slab) == 0 {
			g.slab = make([]cellPage, min(maxSlabPages, max(1, g.owned)))
		}
		p = &g.slab[0]
		g.slab = g.slab[1:]
		g.owned++
		g.pages[key>>pageShift] = p
	}
	return p
}

// at returns the value of the cell at key.
func (g *cellGrid) at(key uint64) uint32 {
	return g.value(key, g.page(key)[key&pageMask])
}

// value returns the value of the cell at key, whose byte is c.
func (g *cellGrid) value(key uint64, c uint8) uint32 {
	if c != escapeByte {
		return uint32(c)
	}
	return g.esc.get(key)
}

// set stores v in the cell at key. A zero stored on an unwritten page
// allocates nothing.
func (g *cellGrid) set(key uint64, v uint32) {
	p := g.page(key)
	if p == &zeroPage {
		if v == 0 {
			return
		}
		p = g.own(key)
	}
	if v < escapeByte {
		p[key&pageMask] = uint8(v)
		return
	}
	p[key&pageMask] = escapeByte
	g.esc.put(key, v)
}

// cells yields the key and value of each non-zero cell in key order,
// skipping unwritten pages.
func (g *cellGrid) cells() iter.Seq2[uint64, uint32] {
	return func(yield func(uint64, uint32) bool) {
		for i, p := range g.pages {
			if p == &zeroPage {
				continue
			}
			for k := p.next(0); k < pageCells; k = p.next(k + 1) {
				key := uint64(i)<<pageShift | uint64(k)
				if !yield(key, g.value(key, p[k])) {
					return
				}
			}
		}
	}
}

// row yields the key and byte of each non-zero cell of row j in key
// order, skipping unwritten pages.
func (g *cellGrid) row(j uint64) iter.Seq2[uint64, uint8] {
	return func(yield func(uint64, uint8) bool) {
		lo, hi := j*g.u, (j+1)*g.u
		for key := lo; key < hi && g.pages != nil; {
			p := g.pages[key>>pageShift]
			end := min(hi, (key|pageMask)+1)
			if p == &zeroPage {
				key = end
				continue
			}
			base := key &^ pageMask
			for k := p.next(int(key - base)); base+uint64(k) < end; k = p.next(k + 1) {
				if !yield(base+uint64(k), p[k]) {
					return
				}
			}
			key = end
		}
	}
}

// bits charges the grid's cells under cellBits: every row's when
// emptyRows is true, else only the rows holding a non-zero cell, as a
// credit row costs nothing before its first credit. It walks row by row:
// a window charges every bucket it seals (§8), and the cells iterator,
// with a division per cell to find its row, cost nearly as much as the
// bucket's encode.
func (g *cellGrid) bits(emptyRows bool) int64 {
	var b, rows int64
	for j := uint64(0); j < g.n/g.u; j++ {
		written := false
		for key, c := range g.row(j) {
			b += cellBits(uint64(g.value(key, c))) - 1
			written = true
		}
		if written || emptyRows {
			rows++
		}
	}
	return b + rows*int64(g.u)
}

// encodeRuns writes row j as zero runs, the v3 layout of T2 and the
// credit: each non-zero cell as the count of zero cells since the
// previous non-zero one, then its value; a row that ends in zeros then
// closes with the length of that last run. An all-zero row is one run
// of u. It walks the row alone, not every cell through the cells
// iterator, since snapshots encode inside the shard barrier: a walk
// through a cells iterator cost a full engine's frame 7–10% more encode
// time.
func (g *cellGrid) encodeRuns(w *wire.Writer, j int) {
	next, hi := uint64(j)*g.u, uint64(j+1)*g.u
	for key, c := range g.row(uint64(j)) {
		w.U64(key - next)
		w.U64(uint64(g.value(key, c)))
		next = key + 1
	}
	if next < hi {
		w.U64(hi - next)
	}
}

// decodeRuns reads a row written by encodeRuns into row j, allocating
// only for a non-zero cell; false on corrupt input: a read error, a run
// past the end of the row, or a cell of zero or above MaxUint32.
func (g *cellGrid) decodeRuns(r *wire.Reader, j int) bool {
	lo := uint64(j) * g.u
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
		g.set(lo+i, uint32(v))
	}
	return r.Err() == nil
}

// decodeRow reads a v1 or v2 T2 row into row j: the length u, then one
// uvarint per cell, as wire.Writer.U32s writes the widened row. Zero
// cells allocate nothing. It is false on corrupt input: a length other
// than u, a truncated row or a cell above MaxUint32.
func (g *cellGrid) decodeRow(r *wire.Reader, j int) bool {
	if r.Length() != g.u {
		return false
	}
	lo := uint64(j) * g.u
	for key := lo; key < lo+g.u && r.Err() == nil; key++ {
		v := r.U64()
		if v > math.MaxUint32 {
			return false
		}
		g.set(key, uint32(v))
	}
	return r.Err() == nil
}

// decodeSparseRow reads a v2 credit row into row j: a count, then
// (index, value) pairs in ascending index order. It is false on corrupt
// input: a read error, an index out of range or out of order, a zero or
// oversized value.
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
		g.set(uint64(j)*g.u+i, uint32(v))
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
