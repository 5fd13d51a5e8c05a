package l1hh

import (
	"fmt"
	"runtime"
	"testing"
)

// TestOptimalHeapNearModelBits bounds what a serial Algorithm 2 engine
// holds on the heap, and the checkpoint frame it writes, against what
// the paper's accounting charges it (ModelBits, DESIGN.md §4), at the
// two space probe rows of ROADMAP.md: a pool-tenant-sized engine and
// the embed-sampled benchmark's. The bounds are ≤ 10× ModelBits/8 bytes
// of heap and ≤ 4× ModelBits/8 bytes of frame. The input stream stays
// alive across both heap readings so only the engine's growth is
// measured.
func TestOptimalHeapNearModelBits(t *testing.T) {
	const maxRatio, maxFrameRatio = 10, 4
	for _, c := range []struct {
		eps, phi float64
		m        int
	}{
		{0.01, 0.05, 1 << 14},
		{0.002, 0.02, 1 << 21},
	} {
		t.Run(fmt.Sprintf("eps=%g/phi=%g/m=%d", c.eps, c.phi, c.m), func(t *testing.T) {
			xs := Generate(NewZipfStream(7, 1<<20, 1.1), c.m)
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
			if ratio > maxRatio {
				t.Errorf("engine heap is %.1f× its model bits, want ≤ %d×", ratio, maxRatio)
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
