package core

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/wire"
)

// escapeConfig runs Algorithm 2 at sample rate 1 (M < ℓ = 128/ε²) with
// the T2 coin at 2⁻⁴, so a one-id stream of a few thousand items drives
// every repetition's T2 cell past escapeByte.
var escapeConfig = Config{Eps: 0.1, Phi: 0.3, Delta: 0.1, M: 8192, N: 1 << 20}

func newEscapeOptimal(t *testing.T) *Optimal {
	t.Helper()
	o, err := NewOptimal(rng.New(31), escapeConfig)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// widen returns g's cells as dense uint32 rows (nil rows stay nil).
func widen(g *cellGrid) [][]uint32 {
	out := make([][]uint32, len(g.rows))
	for j, row := range g.rows {
		if row == nil {
			continue
		}
		out[j] = make([]uint32, len(row))
		for i := range row {
			out[j][i] = g.at(j, uint64(i))
		}
	}
	return out
}

// checkGrid verifies g's layout invariants against its widened values:
// a cell below escapeByte is its own byte, any other cell is escapeByte
// with its value in the table, each row encodes in the v2 layout to the
// bytes wire.Writer.U32s writes for the widened row, and its v3 zero
// runs decode back to the same cells.
func checkGrid(t *testing.T, g *cellGrid) {
	t.Helper()
	for j, row := range widen(g) {
		if row == nil {
			continue
		}
		for i, v := range row {
			c := g.rows[j][i]
			if v < escapeByte && c != uint8(v) || v >= escapeByte && (c != escapeByte || g.esc.get(uint64(j)*g.u+uint64(i)) != v) {
				t.Fatalf("cell (%d,%d) = %d stored as byte %d", j, i, v, c)
			}
		}
		want, got := wire.NewWriter(), wire.NewWriter()
		want.U32s(row)
		g.encodeRow(got, j)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("row %d encodes differently from its widened form", j)
		}
		runs := wire.NewWriter()
		g.encodeRuns(runs, j)
		back := newCellGrid(len(g.rows), g.u)
		r := wire.NewReader(runs.Bytes())
		if !back.decodeRuns(r, j) || !r.Done() {
			t.Fatalf("row %d: its zero runs do not decode", j)
		}
		for i, v := range row {
			if got := back.at(j, uint64(i)); got != v {
				t.Fatalf("cell (%d,%d) = %d after its zero runs, want %d", j, i, got, v)
			}
		}
	}
}

// wideBits is ModelBits' T2 and credit charge computed from widened rows.
func wideBits(o *Optimal) int64 {
	var b int64
	for _, g := range []*cellGrid{&o.t2, &o.pre} {
		for _, row := range widen(g) {
			for _, v := range row {
				b += cellBits(uint64(v))
			}
		}
	}
	return b
}

// TestT2CellsEscape: a one-id stream takes the id's T2 cell in every
// repetition through 254 → 255 → 256, each cell passing from its byte to
// the escape table, while the layout stays invisible to the encoding and
// to ModelBits.
func TestT2CellsEscape(t *testing.T) {
	o := newEscapeOptimal(t)
	const x = 12345
	seen := make([]map[uint32]bool, o.reps)
	for j := range seen {
		seen[j] = map[uint32]bool{}
	}
	for n := 0; n < 6000; n++ {
		o.Insert(x)
		for j := 0; j < o.reps; j++ {
			seen[j][o.t2.at(j, o.hashes[j].Hash(x))] = true
		}
	}
	for j := range seen {
		for _, v := range []uint32{escapeByte - 1, escapeByte, escapeByte + 1} {
			if !seen[j][v] {
				t.Fatalf("rep %d never held %d", j, v)
			}
		}
	}
	if o.t2.esc.n != o.reps {
		t.Fatalf("%d escaped cells, want one per repetition (%d)", o.t2.esc.n, o.reps)
	}
	checkGrid(t, &o.t2)
	want := o.t1.ModelBits() + wideBits(o) + samplerModelBits(o.offered)
	for j := range o.hashes {
		want += o.hashes[j].ModelBits()
	}
	for _, row := range o.t3 {
		for _, v := range row {
			want += cellBits(uint64(v))
		}
	}
	if got := o.ModelBits(); got != want {
		t.Fatalf("ModelBits = %d, want %d with every cell at its full value", got, want)
	}
}

// refMergeCell is the dense merge rule of Optimal.Merge for one cell:
// T2 adds with a clamp at MaxUint32, and the credit gains other's credit
// plus the surplus of the two pre-epoch covers over the merged one.
func refMergeCell(ta, tb, pa, pb uint32, base float64) (t2, pre uint32) {
	sum := uint64(ta) + uint64(tb)
	if sum > math.MaxUint32 {
		sum = math.MaxUint32
	}
	surplus := math.Min(float64(ta), base) + math.Min(float64(tb), base) - math.Min(float64(sum), base)
	return uint32(sum), satAdd32(pa, satAdd32(pb, uint32(surplus+0.5)))
}

// TestMergeEscapedCells folds cells chosen to cross the escape boundary
// and checks every cell of both grids against the dense merge rule:
// narrow + narrow crossing 255, escaped + narrow, narrow + escaped, the
// MaxUint32 clamp, and credit rows crossing 255.
func TestMergeEscapedCells(t *testing.T) {
	a, b := newEscapeOptimal(t), newEscapeOptimal(t)
	for n := 0; n < 2000; n++ {
		a.Insert(uint64(n % 7))
		b.Insert(uint64(n % 11))
	}
	cells := []struct {
		j              int
		i              uint64
		ta, tb, pa, pb uint32
	}{
		{0, 1, 200, 100, 0, 0},                 // narrow + narrow crossing 255
		{0, 2, 254, 1, 0, 0},                   // lands exactly on 255
		{1, 3, 1000, 7, 0, 0},                  // escaped + narrow
		{1, 4, 7, 1000, 0, 0},                  // narrow + escaped
		{2, 5, math.MaxUint32 - 5, 1000, 0, 0}, // T2 clamp
		{2, 6, 300, 400, 250, 0},               // credit crossing 255
		{3, 7, 0, 0, 0, 600},                   // credit only on other's side
		{3, 8, 10, 10, math.MaxUint32, 9},      // credit clamp
		{4, 9, math.MaxUint32, math.MaxUint32, 0, 0},
	}
	for _, c := range cells {
		a.t2.set(c.j, c.i, c.ta)
		b.t2.set(c.j, c.i, c.tb)
		if c.pa != 0 {
			a.pre.set(c.j, c.i, c.pa)
		}
		if c.pb != 0 {
			b.pre.set(c.j, c.i, c.pb)
		}
	}
	ta, tb, pa, pb := widen(&a.t2), widen(&b.t2), widen(&a.pre), widen(&b.pre)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	checkGrid(t, &a.t2)
	checkGrid(t, &a.pre)
	at := func(rows [][]uint32, j, i int) uint32 {
		if rows[j] == nil {
			return 0
		}
		return rows[j][i]
	}
	for j := 0; j < a.reps; j++ {
		for i := 0; i < int(a.u); i++ {
			t2, pre := refMergeCell(ta[j][i], tb[j][i], at(pa, j, i), at(pb, j, i), a.base)
			if got := a.t2.at(j, uint64(i)); got != t2 {
				t.Fatalf("T2 (%d,%d) = %d, want %d", j, i, got, t2)
			}
			if got := a.pre.at(j, uint64(i)); got != pre {
				t.Fatalf("credit (%d,%d) = %d, want %d", j, i, got, pre)
			}
		}
	}
	if got := a.t2.at(2, 5); got != math.MaxUint32 {
		t.Fatalf("clamped cell = %d, want MaxUint32", got)
	}
}

// TestRestoredEscapedCellsKeepInserting: an engine restored from a
// checkpoint holding escaped cells re-encodes to the same bytes, and
// after both keep inserting the same items, the two still encode
// identically.
func TestRestoredEscapedCellsKeepInserting(t *testing.T) {
	o := newEscapeOptimal(t)
	for n := 0; n < 5000; n++ {
		x := uint64(7) // hot enough to escape in every repetition
		if n%10 == 0 {
			x = uint64(n)
		}
		o.Insert(x)
	}
	if o.t2.esc.n < o.reps {
		t.Fatal("no escaped cells: the case pins nothing")
	}
	blob, err := o.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var r Optimal
	if err := r.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if again, _ := r.MarshalBinary(); !bytes.Equal(again, blob) {
		t.Fatal("restored engine re-encodes differently")
	}
	if r.ModelBits() != o.ModelBits() {
		t.Fatalf("restored ModelBits %d, want %d", r.ModelBits(), o.ModelBits())
	}
	for n := 0; n < 3000; n++ {
		o.Insert(uint64(n % 5))
		r.Insert(uint64(n % 5))
	}
	checkGrid(t, &r.t2)
	a, _ := o.MarshalBinary()
	b, _ := r.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatal("restored engine diverged after further inserts")
	}
}

// TestUnmarshalRejectsOversizedCell: a T2 cell or a credit cell whose
// uvarint exceeds MaxUint32 is corrupt, exactly as in the widened
// layout; the same blob with the cell at MaxUint32 decodes.
func TestUnmarshalRejectsOversizedCell(t *testing.T) {
	maxCell := []byte{0xff, 0xff, 0xff, 0xff, 0x0f} // uvarint MaxUint32
	over := []byte{0x80, 0x80, 0x80, 0x80, 0x10}    // uvarint 2³², same length
	for _, grid := range []string{"t2", "credit"} {
		t.Run(grid, func(t *testing.T) {
			o := newEscapeOptimal(t)
			for n := 0; n < 100; n++ {
				o.Insert(uint64(n))
			}
			if grid == "t2" {
				o.t2.set(1, 17, math.MaxUint32)
			} else {
				o.pre.set(1, 17, math.MaxUint32)
			}
			blob, err := o.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if n := bytes.Count(blob, maxCell); n != 1 {
				t.Fatalf("MaxUint32 cell appears %d times in the blob, want 1", n)
			}
			var ok Optimal
			if err := ok.UnmarshalBinary(blob); err != nil || ok.t2.at(1, 17)+ok.pre.at(1, 17) == 0 {
				t.Fatalf("MaxUint32 cell: err %v", err)
			}
			bad := bytes.Replace(blob, maxCell, over, 1)
			var r Optimal
			if err := r.UnmarshalBinary(bad); !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("cell of 2³² decoded: err = %v, want ErrCorrupt", err)
			}
		})
	}
}
