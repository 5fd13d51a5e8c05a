package l1hh

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hash"
	"repro/internal/mg"
	"repro/internal/rng"
	"repro/internal/sample"
	"repro/internal/shard"
	"repro/internal/wire"
)

// gridFrame returns a valid tag-1 checkpoint of a fresh Algorithm 2
// engine (ε = 0.01, ϕ = 0.05, so 17 repetitions) reshaped to u buckets
// per repetition: a small engine's frame with u and every bucket hash
// replaced. A fresh engine's rows are all zero, so the frame stays near
// a kilobyte whatever grid it declares.
func gridFrame(t *testing.T, u uint64) []byte {
	t.Helper()
	hh, err := New(WithEps(0.01), WithPhi(0.05), WithStreamLength(1<<20), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := hh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(blob[1:])
	w := wire.NewWriter()
	w.U64(r.U64()) // version
	for range 3 {
		w.F64(r.F64()) // ε, ϕ, δ
	}
	for range 2 {
		w.U64(r.U64()) // m, n
	}
	for range 7 {
		w.F64(r.F64()) // tuning
	}
	sample.DecodeSkip(r).Encode(w)
	mg.DecodeSummary(r).Encode(w)
	reps, small := r.U64(), r.U64()
	w.U64(reps)
	w.U64(u)
	src := rng.New(1)
	for range reps {
		hash.DecodeFunc(r)
		// A fresh row: T2 one zero run, no T3 row, credit one zero run.
		if r.U64() != small || r.U64() != 0 || r.U64() != small {
			t.Fatal("fresh frame layout changed")
		}
		hash.NewFunc(src, u).Encode(w)
		w.U64(u)
		w.U64(0)
		w.U64(u)
	}
	w.U64(r.U64()) // coin exponent
	w.F64(r.F64()) // coin rate
	w.F64(r.F64()) // epoch base
	for range 4 {
		w.U64(r.U64()) // PRNG state, s, offered, max epoch
	}
	if !r.Done() {
		t.Fatal("frame layout changed")
	}
	return append([]byte{tagOptimal}, w.Bytes()...)
}

// shardedFrame wraps engine frames in a tag-3 container at (ε, ϕ) =
// (0.01, 0.05) with the given partition seed.
func shardedFrame(seed uint64, frames ...[]byte) []byte {
	snap := wire.NewWriter()
	snap.U64(2) // snapshot version
	snap.U64(uint64(len(frames)))
	snap.U64(seed)
	snap.U64(0) // accepted items
	for _, f := range frames {
		snap.Blob(f)
	}
	w := wire.NewWriter()
	w.F64(0.01)
	w.F64(0.05)
	w.Blob(snap.Bytes())
	return append([]byte{tagSharded}, w.Bytes()...)
}

// allocated returns the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// maxFrameU is the largest u a 17-repetition frame may declare.
const maxFrameU = core.MaxGridCells / 17

// TestUnmarshalBoundsContainerGrid: a sharded checkpoint whose frames
// are each within the grid bound but together above it is refused
// before any frame is decoded. Each v3 frame is about a kilobyte, so
// without the sum two of them would allocate 512 MiB.
func TestUnmarshalBoundsContainerGrid(t *testing.T) {
	if cells, err := core.FrameGridCells(gridFrame(t, maxFrameU)[1:]); err != nil || cells != 17*maxFrameU {
		t.Fatalf("a maximum-grid frame reads %d cells, err %v", cells, err)
	}
	big := gridFrame(t, maxFrameU)
	blob := shardedFrame(7, big, big)
	var err error
	if grew := allocated(func() { _, err = Unmarshal(blob) }); grew > 1<<20 {
		t.Fatalf("refusing a %d-byte checkpoint allocated %d bytes", len(blob), grew)
	}
	if err == nil || !strings.Contains(err.Error(), "grid cells") {
		t.Fatalf("two maximum-grid frames: err = %v, want the grid bound", err)
	}
	// The same container of small frames restores, so the refusal is
	// the bound's, not the crafting's.
	small := gridFrame(t, 1000)
	hh, err := Unmarshal(shardedFrame(7, small, small))
	if err != nil {
		t.Fatalf("two small frames: %v", err)
	}
	hh.Close()
	// The bound is on the sum: exactly at it passes, one bucket more
	// does not.
	at := shardedFrame(7, gridFrame(t, maxFrameU-1000), gridFrame(t, 1000))
	over := shardedFrame(7, gridFrame(t, maxFrameU-1000), gridFrame(t, 1001))
	if err := checkGridBudget(at); err != nil {
		t.Fatalf("%d cells refused: %v", 17*maxFrameU, err)
	}
	if err := checkGridBudget(over); err == nil {
		t.Fatalf("%d cells accepted", 17*(maxFrameU+1))
	}
}

// TestUnmarshalZeroGridFrame: the committed FuzzUnmarshalAny seed
// seed_tag1_zero_grid_at_cap.bin, a fresh engine's checkpoint declaring
// 11 × 24,402,334 grid cells, just under the bound, in 495 bytes,
// restores through Unmarshal in under 1 MiB and re-encodes to its own
// bytes. A decoder that allocated every row spent 256 MiB on it.
func TestUnmarshalZeroGridFrame(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzUnmarshalAny", "seed_tag1_zero_grid_at_cap.bin"))
	if err != nil {
		t.Fatal(err)
	}
	// A corpus file is a header line, then []byte("…") in Go syntax.
	_, lit, _ := strings.Cut(string(raw), "\n")
	lit, ok := strings.CutPrefix(strings.TrimSpace(lit), "[]byte(")
	str, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	if !ok || err != nil {
		t.Fatalf("corpus file does not parse: %v", err)
	}
	blob := []byte(str)
	if cells, err := core.FrameGridCells(blob[1:]); err != nil || cells != 11*24402334 {
		t.Fatalf("the seed declares %d grid cells, err %v", cells, err)
	}
	var hh HeavyHitters
	grew := allocated(func() { hh, err = Unmarshal(blob) })
	if err != nil {
		t.Fatal(err)
	}
	defer hh.Close()
	if grew > 1<<20 {
		t.Fatalf("restoring the %d-byte frame allocated %d bytes, want under 1 MiB", len(blob), grew)
	}
	if again, _ := hh.MarshalBinary(); !bytes.Equal(again, blob) {
		t.Fatal("the restored engine re-encodes differently")
	}
	if got := hh.Eps(); got != 2.6227e-6 || hh.Len() != 0 || len(hh.Report()) != 0 {
		t.Fatalf("restored engine: ε = %v, %d items, report %v", got, hh.Len(), hh.Report())
	}
}

// TestMergeBoundsContainerGrid: a foreign checkpoint whose frames
// together pass the grid bound is refused before any foreign shard is
// decoded, by Merge and CheckMerge alike; it matches the live engine in
// (ε, ϕ), shard count and partition seed, so only the bound stops it
// before the foreign shards are rebuilt.
func TestMergeBoundsContainerGrid(t *testing.T) {
	hh, err := New(WithEps(0.01), WithPhi(0.05), WithStreamLength(1<<20), WithShards(2), WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	defer hh.Close()
	own, err := hh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	_, snap, err := parseSharded(own)
	if err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(snap)
	r.U64() // version
	r.U64() // shards
	seed := r.U64()
	// Small frames under the live partition decode and reach the
	// per-shard compatibility check, which their shape fails.
	small := gridFrame(t, 1000)
	m := hh.(Merger)
	if err := m.CheckMerge(shardedFrame(seed, small, small)); !errors.Is(err, ErrIncompatibleMerge) {
		t.Fatalf("small frames under the live partition: err = %v, want a shard mismatch", err)
	}
	big := gridFrame(t, maxFrameU)
	blob := shardedFrame(seed, big, big)
	for name, op := range map[string]func([]byte) error{"Merge": m.Merge, "CheckMerge": m.CheckMerge} {
		if grew := allocated(func() { err = op(blob) }); grew > 1<<20 {
			t.Fatalf("%s: refusing a %d-byte checkpoint allocated %d bytes", name, len(blob), grew)
		}
		if err == nil || errors.Is(err, ErrIncompatibleMerge) || !strings.Contains(err.Error(), "grid cells") {
			t.Fatalf("%s: err = %v, want the grid bound", name, err)
		}
	}
}

// TestNewBoundsSolverGrid: New refuses a solver whose engines together
// hold more grid cells than a checkpoint may declare, before building
// any of them, so every solver it builds restores. At ε = 10⁻⁵ and
// ϕ = 0.05 one engine holds 17 × 6.4·10⁶ cells, about 109 MB: two fit
// under the bound, four do not. A window at the windowed ε floor holds
// up to B+2 bucket engines of 21 × 524,288 cells at ϕ = 0.01.
func TestNewBoundsSolverGrid(t *testing.T) {
	for name, opts := range map[string][]Option{
		"4 shards":         {WithEps(1e-5), WithPhi(0.05), WithStreamLength(1 << 30), WithShards(4)},
		"30-bucket window": {WithEps(1.0 / (1 << 13)), WithPhi(0.01), WithCountWindow(1<<20, 30)},
		"4 shards of 8-bucket windows": {WithEps(1.0 / (1 << 13)), WithPhi(0.01),
			WithCountWindow(1<<20, 8), WithShards(4)},
	} {
		var err error
		if grew := allocated(func() { _, err = New(opts...) }); grew > 8<<20 {
			t.Errorf("%s: refusing allocated %d bytes", name, grew)
		}
		if err == nil || !strings.Contains(err.Error(), "Algorithm 2 cells") {
			t.Errorf("%s: err = %v, want the grid bound", name, err)
		}
	}
}

// rewindow rewrites a tag-4 frame at (ε, ϕ) and granularity b, in the
// frame and in its window snapshot alike so the two still agree; the
// bucket frames it carries are unchanged.
func rewindow(t *testing.T, frame []byte, eps, phi float64, b uint64) []byte {
	t.Helper()
	cfg, snap, err := parseWindowed(frame)
	if err != nil {
		t.Fatal(err)
	}
	// The snapshot opens with its version, LastN, LastDuration and B.
	head := func(b uint64) []byte {
		w := wire.NewWriter()
		w.U64(2)
		w.U64(cfg.Window)
		w.I64(0)
		w.U64(b)
		return w.Bytes()
	}
	old := head(uint64(cfg.WindowBuckets))
	if !bytes.HasPrefix(snap, old) {
		t.Fatal("window snapshot layout changed")
	}
	w := wire.NewWriter()
	w.F64(eps)
	w.F64(phi)
	w.F64(cfg.Delta)
	w.U64(cfg.StreamLength)
	w.U64(cfg.Universe)
	w.U64(uint64(cfg.Algorithm))
	w.U64(0) // the retired per-insert budget
	w.U64(cfg.Seed)
	w.U64(cfg.Window)
	w.I64(0)
	w.U64(b)
	w.Blob(append(head(b), snap[len(old):]...))
	return append([]byte{tagWindowed}, w.Bytes()...)
}

// TestUnmarshalBoundsWindowGrid: a windowed checkpoint whose frames
// declare a geometry New refuses does not restore, even when the bucket
// frames it carries are small: the window builds bucket engines from
// its frame's config as it slides. At the windowed ε floor and
// ϕ = 0.01 one window of B = 8 fits the bound, B = 30 or four shards of
// B = 8 do not.
func TestUnmarshalBoundsWindowGrid(t *testing.T) {
	floor := 1.0 / (1 << 13)
	hh, err := New(WithEps(0.01), WithPhi(0.05), WithCountWindow(1000, 8), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	one, err := hh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(rewindow(t, one, 0.01, 0.05, 30)); err != nil {
		t.Fatalf("a 30-bucket window at ε = 0.01: %v", err)
	}
	_, err = Unmarshal(rewindow(t, one, floor, 0.01, 30))
	if err == nil || !strings.Contains(err.Error(), "Algorithm 2 cells") {
		t.Fatalf("a 30-bucket window at the ε floor: err = %v, want the grid bound", err)
	}

	sh, err := New(WithEps(0.01), WithPhi(0.05), WithCountWindow(4000, 8), WithShards(4), WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	blob, err := sh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	h, snap, err := parseSharded(blob)
	if err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(snap)
	version, k, seed, items := r.U64(), r.U64(), r.U64(), r.U64()
	frames, err := shard.Blobs(snap)
	if err != nil || version != 2 {
		t.Fatalf("snapshot v%d: %v", version, err)
	}
	// reshard rewrites every shard's window at (ε, ϕ), keeping B = 8.
	reshard := func(eps, phi float64) []byte {
		s := wire.NewWriter()
		s.U64(version)
		s.U64(k)
		s.U64(seed)
		s.U64(items)
		for _, f := range frames {
			s.Blob(rewindow(t, f, eps, phi, 8))
		}
		w := wire.NewWriter()
		w.F64(h.eps)
		w.F64(h.phi)
		w.U64(h.window)
		w.I64(int64(h.windowDur))
		w.U64(uint64(h.windowBuckets))
		w.Blob(s.Bytes())
		return append([]byte{tagShardedWindowed}, w.Bytes()...)
	}
	ok, err := Unmarshal(reshard(0.01, 0.05))
	if err != nil {
		t.Fatalf("the unchanged geometry: %v", err)
	}
	ok.Close()
	_, err = Unmarshal(reshard(floor, 0.01))
	if err == nil || !strings.Contains(err.Error(), "Algorithm 2 cells") {
		t.Fatalf("four 8-bucket windows at the ε floor: err = %v, want the grid bound", err)
	}
}
