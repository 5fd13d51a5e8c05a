package core

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/wire"
)

// roundTrip marshals mid-stream, unmarshals into a fresh value, finishes
// the stream on both, and requires identical reports — the exact protocol
// the paper's communication arguments perform.
func TestSimpleListMarshalMidStream(t *testing.T) {
	const m = 200000
	st := plantedHH(3, m, stream.Shuffled)
	orig, err := NewSimpleList(rng.New(5), listConfig(m))
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range st[:m/2] {
		orig.Insert(x)
	}
	blob, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored SimpleList
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	for _, x := range st[m/2:] {
		orig.Insert(x)
		restored.Insert(x)
	}
	a, b := orig.Report(), restored.Report()
	if len(a) != len(b) {
		t.Fatalf("report lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("reports diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	if orig.ModelBits() != restored.ModelBits() {
		t.Fatal("model bits diverge after round trip")
	}
}

func TestMaximumMarshalMidStream(t *testing.T) {
	const m = 150000
	st := plantedHH(4, m, stream.Shuffled)
	cfg := Config{Eps: 0.05, Delta: 0.2, M: m, N: 1 << 32}
	orig, err := NewMaximum(rng.New(6), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range st[:m/2] {
		orig.Insert(x)
	}
	blob, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored Maximum
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	for _, x := range st[m/2:] {
		orig.Insert(x)
		restored.Insert(x)
	}
	i1, f1, ok1 := orig.Report()
	i2, f2, ok2 := restored.Report()
	if i1 != i2 || f1 != f2 || ok1 != ok2 {
		t.Fatalf("reports diverge: (%d,%v,%v) vs (%d,%v,%v)", i1, f1, ok1, i2, f2, ok2)
	}
}

func TestOptimalMarshalMidStream(t *testing.T) {
	const m = 200000
	st := plantedHH(7, m, stream.Shuffled)
	orig, err := NewOptimal(rng.New(8), listConfig(m))
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range st[:m/2] {
		orig.Insert(x)
	}
	blob, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored Optimal
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	for _, x := range st[m/2:] {
		orig.Insert(x)
		restored.Insert(x)
	}
	a, b := orig.Report(), restored.Report()
	if len(a) != len(b) {
		t.Fatalf("report lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("reports diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	if orig.ModelBits() != restored.ModelBits() {
		t.Fatal("model bits diverge after round trip")
	}
}

// encodeRow writes row j in the v1 and v2 T2 layout, the bytes
// wire.Writer.U32s writes for the widened row: the length u, then one
// uvarint per cell.
func (g *cellGrid) encodeRow(w *wire.Writer, j int) {
	w.U64(g.u)
	for key := uint64(j) * g.u; key < uint64(j+1)*g.u; key++ {
		w.U64(uint64(g.at(key)))
	}
}

// encodeSparseRow writes row j in the v2 credit layout: the count of
// non-zero cells, then (index, value) pairs in ascending index order.
func (g *cellGrid) encodeSparseRow(w *wire.Writer, j int) {
	lo := uint64(j) * g.u
	var keys []uint64
	for key := range g.cells() {
		if key >= lo && key < lo+g.u {
			keys = append(keys, key)
		}
	}
	w.U64(uint64(len(keys)))
	for _, key := range keys {
		w.U64(key - lo)
		w.U64(uint64(g.at(key)))
	}
}

// marshalOptimalV1 and marshalOptimalV2 replicate the encoders before
// v3, so upgrade compatibility stays tested and the identity digests
// keep the bytes they were recorded over.
func marshalOptimalV1(o *Optimal) []byte { return marshalOptimalDense(o, 1) }
func marshalOptimalV2(o *Optimal) []byte { return marshalOptimalDense(o, 2) }

// marshalOptimalDense writes the v1 or v2 layout: each T2 row dense,
// every one of the R·u T3 buckets as a length-prefixed row, and (v2
// only) each credit row sparse.
func marshalOptimalDense(o *Optimal, version uint64) []byte {
	w := wire.NewWriter()
	o.encodeHead(w, version)
	for j := 0; j < o.reps; j++ {
		o.hashes[j].Encode(w)
		o.t2.encodeRow(w, j)
		for i := uint64(0); i < o.u; i++ {
			w.U32s(o.t3[uint64(j)*o.u+i])
		}
		if version >= 2 {
			o.pre.encodeSparseRow(w, j)
		}
	}
	o.encodeTail(w)
	return w.Bytes()
}

// TestOptimalUnmarshalAcceptsV1: checkpoints written before v3 — the
// pre-merge-tier v1 layout and the dense v2 one — must restore with the
// same report, and re-marshalling upgrades them to exactly the bytes the
// original engine writes now.
func TestOptimalUnmarshalAcceptsV1(t *testing.T) {
	const m = 100000
	st := plantedHH(9, m, stream.Shuffled)
	orig, err := NewOptimal(rng.New(10), listConfig(m))
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range st {
		orig.Insert(x)
	}
	want, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for v, legacy := range map[int][]byte{1: marshalOptimalV1(orig), 2: marshalOptimalV2(orig)} {
		var restored Optimal
		if err := restored.UnmarshalBinary(legacy); err != nil {
			t.Fatalf("v%d checkpoint rejected: %v", v, err)
		}
		if fmt.Sprint(restored.Report()) != fmt.Sprint(orig.Report()) {
			t.Fatalf("v%d-restored report differs", v)
		}
		up, err := restored.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(up, want) {
			t.Fatalf("v%d checkpoint re-marshals to %d bytes, not the %d of the current encoder", v, len(up), len(want))
		}
		if len(up) >= len(legacy) {
			t.Fatalf("v3 frame %d bytes, v%d frame %d: the upgrade grew it", len(up), v, len(legacy))
		}
	}
	// An unknown future version is a version error, not "corrupt".
	future := append([]byte{}, want...)
	future[0] = 9
	var bad Optimal
	if err := bad.UnmarshalBinary(future); err == nil || !strings.Contains(err.Error(), "unsupported") {
		t.Fatalf("future version: err = %v, want unsupported-version error", err)
	}
}

// v3Parts replaces parts of repetition 1 in v3Frame: each non-nil
// function writes its part in place of the engine's own.
type v3Parts struct {
	t2, t3, credit func(w *wire.Writer)
	trailing       bool // append one byte after the frame
}

// v3Frame writes o's frame as MarshalBinary does, with repetition 1's
// parts replaced by p's.
func v3Frame(o *Optimal, p v3Parts) []byte {
	w := wire.NewWriter()
	o.encodeHead(w, optimalMarshalVersion)
	keys := slices.Sorted(maps.Keys(o.t3))
	for j := 0; j < o.reps; j++ {
		o.hashes[j].Encode(w)
		pick := func(part func(*wire.Writer), own func()) {
			if j == 1 && part != nil {
				part(w)
			} else {
				own()
			}
		}
		pick(p.t2, func() { o.t2.encodeRuns(w, j) })
		n, _ := slices.BinarySearch(keys, uint64(j+1)*o.u)
		pick(p.t3, func() { o.encodeT3(w, j, keys[:n]) })
		keys = keys[n:]
		pick(p.credit, func() { o.pre.encodeRuns(w, j) })
	}
	o.encodeTail(w)
	if p.trailing {
		w.U64(0)
	}
	return w.Bytes()
}

// TestUnmarshalRejectsCorruptV3: each hostile variant of a v3 frame —
// runs or T3 gaps past the row's end, gap arithmetic that wraps, cells
// of zero or above MaxUint32, an empty T3 row, a T3 count above u,
// trailing bytes — is corrupt. The valid variants beside them prove the
// hostile one differs only in the broken field.
func TestUnmarshalRejectsCorruptV3(t *testing.T) {
	o := newEscapeOptimal(t)
	for n := 0; n < 3000; n++ {
		o.Insert(uint64(n % 40))
	}
	if blob, _ := o.MarshalBinary(); !bytes.Equal(v3Frame(o, v3Parts{}), blob) {
		t.Fatal("v3Frame does not reproduce MarshalBinary")
	}
	u := o.u
	one := []uint32{1}
	// cells writes a row as zero runs: one cell of value v at index 3,
	// then a second at index 3+1+gap, then the run to the end.
	cells := func(v, gap uint64) func(w *wire.Writer) {
		return func(w *wire.Writer) {
			w.U64(3)
			w.U64(v)
			w.U64(gap)
			w.U64(5)
			w.U64(u - 3 - 1 - gap - 1)
		}
	}
	// rows writes T3 as n present rows at the given gaps.
	rows := func(n uint64, gaps ...uint64) func(w *wire.Writer) {
		return func(w *wire.Writer) {
			w.U64(n)
			for _, g := range gaps {
				w.U64(g)
				w.U32s(one)
			}
		}
	}
	for _, c := range []struct {
		name string
		p    v3Parts
		ok   bool
	}{
		{"t2 valid", v3Parts{t2: cells(7, 10)}, true},
		{"t2 zero cell", v3Parts{t2: cells(0, 10)}, false},
		{"t2 cell above MaxUint32", v3Parts{t2: cells(1<<32, 10)}, false},
		{"t2 run past u", v3Parts{t2: cells(7, u)}, false},
		{"t2 run wraps out of order", v3Parts{t2: cells(7, math.MaxUint64-3)}, false},
		{"t2 empty row", v3Parts{t2: func(w *wire.Writer) { w.U64(u) }}, true},
		{"credit valid", v3Parts{credit: cells(300, 0)}, true},
		{"credit zero cell", v3Parts{credit: cells(0, 0)}, false},
		{"credit cell above MaxUint32", v3Parts{credit: cells(1<<32, 0)}, false},
		{"credit run wraps out of order", v3Parts{credit: cells(7, math.MaxUint64-3)}, false},
		{"t3 valid", v3Parts{t3: rows(2, 0, u-2)}, true},
		{"t3 gap past u", v3Parts{t3: rows(2, 0, u-1)}, false},
		{"t3 gap wraps", v3Parts{t3: rows(2, 5, math.MaxUint64-5)}, false},
		{"t3 empty row", v3Parts{t3: func(w *wire.Writer) { w.U64(1); w.U64(0); w.U32s(nil) }}, false},
		{"t3 count above u", v3Parts{t3: rows(u + 1)}, false},
		{"trailing bytes", v3Parts{trailing: true}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			var r Optimal
			err := r.UnmarshalBinary(v3Frame(o, c.p))
			if c.ok && err != nil {
				t.Fatalf("valid variant rejected: %v", err)
			}
			if !c.ok && !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
			checkZeroPage(t)
		})
	}
}

// TestUnmarshalBoundsGridSize: a frame whose grid shape claims more
// than MaxGridCells cells is corrupt, and is refused before the grid is
// allocated. A v3 frame writes an all-zero row in a few bytes, so a
// short frame can claim any shape. FrameGridCells reads the same header
// and admits a shape exactly at the bound, without allocating its grid.
func TestUnmarshalBoundsGridSize(t *testing.T) {
	o := newEscapeOptimal(t)
	big := *o
	big.u = MaxGridCells / uint64(o.reps)
	at := v3Frame(&big, v3Parts{})
	if cells, err := FrameGridCells(at); err != nil || cells != uint64(o.reps)*big.u {
		t.Fatalf("%d×%d grid: FrameGridCells = %d, %v", o.reps, big.u, cells, err)
	}
	big.u++
	blob := v3Frame(&big, v3Parts{})
	if _, err := FrameGridCells(blob); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("%d×%d grid: FrameGridCells err = %v, want ErrCorrupt", o.reps, big.u, err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var r Optimal
	err := r.UnmarshalBinary(blob)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("%d×%d grid from a %d-byte frame: err = %v, want ErrCorrupt", o.reps, big.u, len(blob), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing the frame allocated %d bytes", grew)
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	orig, err := NewSimpleList(rng.New(9), listConfig(10000))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 1000; i++ {
		orig.Insert(i % 50)
	}
	blob, _ := orig.MarshalBinary()
	var s SimpleList
	if err := s.UnmarshalBinary(blob[:len(blob)/2]); err == nil {
		t.Fatal("truncated blob accepted")
	}
	if err := s.UnmarshalBinary(nil); err == nil {
		t.Fatal("empty blob accepted")
	}
	garbage := append([]byte{}, blob...)
	garbage[0] ^= 0xFF // break the version tag
	if err := s.UnmarshalBinary(garbage); err == nil {
		t.Fatal("bad version accepted")
	}

	var o Optimal
	if err := o.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage Optimal blob accepted")
	}
	var mx Maximum
	if err := mx.UnmarshalBinary([]byte{}); err == nil {
		t.Fatal("empty Maximum blob accepted")
	}
}

func TestMarshalDeterministic(t *testing.T) {
	mk := func() []byte {
		a, _ := NewOptimal(rng.New(11), listConfig(50000))
		for i := uint64(0); i < 20000; i++ {
			a.Insert(i % 100)
		}
		b, _ := a.MarshalBinary()
		return b
	}
	if string(mk()) != string(mk()) {
		t.Fatal("same state produced different encodings")
	}
}
