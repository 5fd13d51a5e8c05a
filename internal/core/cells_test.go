package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"testing"

	"repro/internal/hash"
	"repro/internal/mg"
	"repro/internal/rng"
	"repro/internal/sample"
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

// widen returns g's cells as dense uint32 rows.
func widen(g *cellGrid) [][]uint32 {
	out := make([][]uint32, g.n/g.u)
	for j := range out {
		out[j] = make([]uint32, g.u)
		for i := range out[j] {
			out[j][i] = g.at(uint64(j)*g.u + uint64(i))
		}
	}
	return out
}

// TestMain runs the package's tests, then fails the run if any of them
// wrote the shared zero page, which every unwritten page of every grid
// reads.
func TestMain(m *testing.M) {
	code := m.Run()
	if zeroPage != (cellPage{}) {
		fmt.Fprintln(os.Stderr, "core: a test wrote the shared zero page")
		code = 1
	}
	os.Exit(code)
}

// checkZeroPage fails the test if anything wrote the shared zero page.
func checkZeroPage(t *testing.T) {
	t.Helper()
	if zeroPage != (cellPage{}) {
		t.Fatalf("the shared zero page was written: %v", zeroPage)
	}
}

// checkGrid verifies g's layout invariants against its widened values:
// the zero page holds only zeros, a page table is present exactly when
// a cell is non-zero and covers every cell, a cell below escapeByte is
// its own byte, any other cell is escapeByte with its value in the
// table, each row encodes in the v2 layout to the bytes
// wire.Writer.U32s writes for the widened row, and its v3 zero runs
// decode back to the same cells.
func checkGrid(t *testing.T, g *cellGrid) {
	t.Helper()
	checkZeroPage(t)
	nonZero := false
	for range g.cells() {
		nonZero = true
	}
	if nonZero != (g.pages != nil) {
		t.Fatalf("page table allocated = %v, non-zero cells = %v", g.pages != nil, nonZero)
	}
	if g.pages != nil && uint64(len(g.pages))*pageCells < g.n {
		t.Fatalf("%d pages cover fewer than the grid's %d cells", len(g.pages), g.n)
	}
	for j, row := range widen(g) {
		for i, v := range row {
			key := uint64(j)*g.u + uint64(i)
			c := g.page(key)[key&pageMask]
			if v < escapeByte && c != uint8(v) || v >= escapeByte && (c != escapeByte || g.esc.get(key) != v) {
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
		back := newCellGrid(int(g.n/g.u), g.u)
		r := wire.NewReader(runs.Bytes())
		if !back.decodeRuns(r, j) || !r.Done() {
			t.Fatalf("row %d: its zero runs do not decode", j)
		}
		for i, v := range row {
			if got := back.at(uint64(j)*g.u + uint64(i)); got != v {
				t.Fatalf("cell (%d,%d) = %d after its zero runs, want %d", j, i, got, v)
			}
		}
	}
}

// wideModelBits is ModelBits computed with every grid cell read at its
// full value from widened rows: every T2 row is charged, and each
// credit row holding a credit.
func wideModelBits(o *Optimal) int64 {
	b := o.t1.ModelBits() + samplerModelBits(o.offered)
	for j := range o.hashes {
		b += o.hashes[j].ModelBits()
	}
	for _, row := range o.t3 {
		for _, v := range row {
			b += cellBits(uint64(v))
		}
	}
	for _, g := range []*cellGrid{&o.t2, &o.pre} {
		for _, row := range widen(g) {
			if g == &o.pre && !slices.ContainsFunc(row, func(v uint32) bool { return v != 0 }) {
				continue
			}
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
			seen[j][o.t2.at(uint64(j)*o.u+o.hashes[j].Hash(x))] = true
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
	if got, want := o.ModelBits(), wideModelBits(o); got != want {
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
		key := uint64(c.j)*a.u + c.i
		a.t2.set(key, c.ta)
		b.t2.set(key, c.tb)
		a.pre.set(key, c.pa)
		b.pre.set(key, c.pb)
	}
	ta, tb, pa, pb := widen(&a.t2), widen(&b.t2), widen(&a.pre), widen(&b.pre)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	checkGrid(t, &a.t2)
	checkGrid(t, &a.pre)
	checkGrid(t, &b.t2)
	checkGrid(t, &b.pre)
	for j := 0; j < a.reps; j++ {
		for i := 0; i < int(a.u); i++ {
			t2, pre := refMergeCell(ta[j][i], tb[j][i], pa[j][i], pb[j][i], a.base)
			key := uint64(j)*a.u + uint64(i)
			if got := a.t2.at(key); got != t2 {
				t.Fatalf("T2 (%d,%d) = %d, want %d", j, i, got, t2)
			}
			if got := a.pre.at(key); got != pre {
				t.Fatalf("credit (%d,%d) = %d, want %d", j, i, got, pre)
			}
		}
	}
	if got := a.t2.at(2*a.u + 5); got != math.MaxUint32 {
		t.Fatalf("clamped cell = %d, want MaxUint32", got)
	}
	if got, want := a.ModelBits(), wideModelBits(a); got != want {
		t.Fatalf("merged ModelBits = %d, want %d with every cell at its full value", got, want)
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
	checkGrid(t, &r.pre)
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
			key := o.u + 17
			if grid == "t2" {
				o.t2.set(key, math.MaxUint32)
			} else {
				o.pre.set(key, math.MaxUint32)
			}
			blob, err := o.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if n := bytes.Count(blob, maxCell); n != 1 {
				t.Fatalf("MaxUint32 cell appears %d times in the blob, want 1", n)
			}
			var ok Optimal
			if err := ok.UnmarshalBinary(blob); err != nil || ok.t2.at(key)+ok.pre.at(key) == 0 {
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

// capConfig is an Algorithm 2 config whose grid sits just under
// MaxGridCells: 11 repetitions of 24,402,334 buckets.
var capConfig = Config{Eps: 2.6227e-6, Phi: 0.3, Delta: 0.05, M: 1 << 30, N: 1 << 30, Tuning: DefaultTuning}

// zeroGridFrame returns the checkpoint of a fresh engine at capConfig,
// written field by field so that building it allocates no grid: the
// head, then per repetition a bucket hash of range u, T2 as one zero
// run of u, a T3 count of 0 and the credit as one zero run of u, then
// the tail.
func zeroGridFrame(t *testing.T) []byte {
	t.Helper()
	reps, u := gridShape(capConfig)
	if cells := uint64(reps) * u; reps != 11 || u != 24402334 || cells > MaxGridCells {
		t.Fatalf("capConfig grid is %d×%d", reps, u)
	}
	src := rng.New(41)
	o := &Optimal{
		cfg: capConfig, sampler: sample.NewSkip(src.Split(), 1), t1: mg.New(7, capConfig.N),
		reps: reps, u: u, base: minEpochBase, src: src.Split(),
	}
	o.epsEff, o.epsK = sample.PowerOfTwoFloor(capConfig.Eps * capConfig.Tuning.T2Rate)
	w := wire.NewWriter()
	o.encodeHead(w, optimalMarshalVersion)
	for range reps {
		hash.NewFunc(src, u).Encode(w)
		w.U64(u)
		w.U64(0)
		w.U64(u)
	}
	o.encodeTail(w)
	return w.Bytes()
}

// allocated returns the bytes f allocates on the heap.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeZeroGridFrameAtCap: a few-hundred-byte frame whose rows are
// all zero decodes without allocating its grid, whatever the grid it
// declares, and re-encodes to its own bytes. A dense decoder allocated
// 256 MiB for it.
func TestDecodeZeroGridFrameAtCap(t *testing.T) {
	frame := zeroGridFrame(t)
	var o Optimal
	var err error
	grew := allocated(func() { err = o.UnmarshalBinary(frame) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d-byte frame, %d×%d grid: decode allocated %d bytes", len(frame), o.reps, o.u, grew)
	if grew > 1<<20 {
		t.Fatalf("decoding the %d-byte frame allocated %d bytes, want under 1 MiB", len(frame), grew)
	}
	if o.t2.pages != nil || o.pre.pages != nil {
		t.Fatal("an all-zero frame allocated a page table")
	}
	if again, _ := o.MarshalBinary(); !bytes.Equal(again, frame) {
		t.Fatal("the decoded frame re-encodes differently")
	}
	checkZeroPage(t)
}

// TestNewOptimalAtCapAllocatesNoGrid: an engine at the largest grid
// NewOptimal admits holds under 1 MiB before its first insert, and its
// ModelBits still charges each of the R·u empty T2 cells one bit.
func TestNewOptimalAtCapAllocatesNoGrid(t *testing.T) {
	var o *Optimal
	var err error
	grew := allocated(func() { o, err = NewOptimal(rng.New(41), capConfig) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d×%d grid: NewOptimal allocated %d bytes", o.reps, o.u, grew)
	if grew > 1<<20 {
		t.Fatalf("NewOptimal allocated %d bytes, want under 1 MiB", grew)
	}
	if o.t2.pages != nil || o.pre.pages != nil {
		t.Fatal("a fresh engine allocated a page table")
	}
	if cells := int64(o.reps) * int64(o.u); o.ModelBits() < cells {
		t.Fatalf("ModelBits %d charges less than the %d empty T2 cells", o.ModelBits(), cells)
	}
}
