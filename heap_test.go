package l1hh

import (
	"fmt"
	"runtime"
	"testing"
)

// TestOptimalHeapNearModelBits bounds what a serial Algorithm 2 engine
// holds on the heap, and the checkpoint frame it writes, against what
// the paper's accounting charges it (ModelBits, DESIGN.md §4), at the
// two space probe rows of ROADMAP.md, a pool-tenant-sized engine and
// the embed-sampled benchmark's, and at a short tenant: an engine
// declared for 2¹⁹ items that has seen 2,048. The bounds are ≤ 10×
// ModelBits/8 bytes of heap for the probe rows, ≤ 4× for the short
// tenant, whose coin writes about 16 cells per row, and ≤ 4× of frame
// for all three. The input stream stays alive across both heap
// readings so only the engine's growth is measured.
func TestOptimalHeapNearModelBits(t *testing.T) {
	const maxFrameRatio = 4
	for _, c := range []struct {
		eps, phi float64
		m, items int
		maxRatio float64
	}{
		{0.01, 0.05, 1 << 14, 1 << 14, 10},
		{0.002, 0.02, 1 << 21, 1 << 21, 10},
		{0.01, 0.05, 1 << 19, 2048, 4},
	} {
		name := fmt.Sprintf("eps=%g/phi=%g/m=%d", c.eps, c.phi, c.m)
		if c.items != c.m {
			name += fmt.Sprintf("/items=%d", c.items)
		}
		t.Run(name, func(t *testing.T) {
			xs := Generate(NewZipfStream(7, 1<<20, 1.1), c.items)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&before)
			hh, err := New(WithAlgorithm(AlgorithmOptimal), WithEps(c.eps), WithPhi(c.phi),
				WithStreamLength(uint64(c.m)), WithUniverse(1<<30), WithSeed(3))
			if err != nil {
				t.Fatal(err)
			}
			if err := hh.InsertBatch(xs); err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&after)
			heap := float64(after.HeapAlloc) - float64(before.HeapAlloc)
			model := float64(hh.ModelBits()) / 8
			runtime.KeepAlive(xs)
			runtime.KeepAlive(hh)
			ratio := heap / model
			t.Logf("heap %.1f KiB, model %.1f KiB: %.1f×", heap/1024, model/1024, ratio)
			if ratio > c.maxRatio {
				t.Errorf("engine heap is %.1f× its model bits, want ≤ %g×", ratio, c.maxRatio)
			}
			blob, err := hh.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			frame := float64(len(blob)) / model
			t.Logf("frame %.1f KiB: %.2f×", float64(len(blob))/1024, frame)
			if frame > maxFrameRatio {
				t.Errorf("checkpoint frame is %.2f× its model bits, want ≤ %d×", frame, maxFrameRatio)
			}
		})
	}
}
