package l1hh

import (
	"fmt"
	"runtime"
	"testing"
)

// TestOptimalHeapNearModelBits bounds what an Algorithm 2 engine holds
// on the heap, and the checkpoint frame it writes, against what the
// paper's accounting charges it (ModelBits, DESIGN.md §4), at the two
// space probe rows of ROADMAP.md, a pool-tenant-sized engine and the
// embed-sampled benchmark's, at a short tenant: an engine declared for
// 2¹⁹ items that has seen 2,048, and at the embed-skip benchmark's
// engine: two shards declared for 2²⁸ items (p = 2⁻⁸) fed 2²² items in
// 8,192-item calls. The bounds are ≤ 10× ModelBits/8 bytes of heap for
// the probe rows, ≤ 4× for the short tenant, whose coin writes about
// 16 cells per row, ≤ 5.5× for the sharded engine, whose workers must
// borrow their dispatch buffers (one kept 32 KiB buffer per worker
// reads about 6.9×), and ≤ 4× of frame for all of them. The input
// stream stays alive across both heap readings so only the engine's
// growth is measured.
func TestOptimalHeapNearModelBits(t *testing.T) {
	const maxFrameRatio = 4
	for _, c := range []struct {
		eps, phi float64
		m, items int
		maxRatio float64
		extra    []Option
	}{
		{0.01, 0.05, 1 << 14, 1 << 14, 10, nil},
		{0.002, 0.02, 1 << 21, 1 << 21, 10, nil},
		{0.01, 0.05, 1 << 19, 2048, 4, nil},
		// The embed-skip engine: its δ, its seed and two shards.
		{0.01, 0.05, 1 << 28, 1 << 22, 5.5, []Option{WithDelta(0.1), WithSeed(7), WithShards(2)}},
	} {
		name := fmt.Sprintf("eps=%g/phi=%g/m=%d", c.eps, c.phi, c.m)
		if c.items != c.m {
			name += fmt.Sprintf("/items=%d", c.items)
		}
		if c.extra != nil {
			name += "/shards=2"
		}
		t.Run(name, func(t *testing.T) {
			xs := Generate(NewZipfStream(7, 1<<20, 1.1), c.items)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&before)
			hh, err := New(append([]Option{WithAlgorithm(AlgorithmOptimal), WithEps(c.eps), WithPhi(c.phi),
				WithStreamLength(uint64(c.m)), WithUniverse(1 << 30), WithSeed(3)}, c.extra...)...)
			if err != nil {
				t.Fatal(err)
			}
			defer hh.Close()
			for off := 0; off < len(xs); off += 8192 {
				if err := hh.InsertBatch(xs[off:min(off+8192, len(xs))]); err != nil {
					t.Fatal(err)
				}
			}
			if f, ok := hh.(Flusher); ok {
				f.Flush()
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

// TestWindowHeapFollowsFrames bounds what a sliding window holds on the
// heap by the checkpoint it writes: at most 4× its checkpoint bytes, for
// the embed-window benchmark's engine (a 2²⁰-item count window of 16
// buckets on two shards) after 2²² Zipf items, and for the engine
// Unmarshal restores from that checkpoint. A sealed bucket never changes
// again, so a window keeps it as its checkpoint frame and decodes it
// only to fold a report (DESIGN.md §8): one decoded engine per window.
// Heap is measured as in TestOptimalHeapNearModelBits, with the input
// and the checkpoint alive across both readings.
func TestWindowHeapFollowsFrames(t *testing.T) {
	const maxRatio = 4
	xs := Generate(NewZipfStream(7, 1<<20, 1.1), 1<<22)
	heapOf := func(build func() HeavyHitters) (HeavyHitters, float64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		hh := build()
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		return hh, float64(after.HeapAlloc) - float64(before.HeapAlloc)
	}
	var blob []byte
	hh, heap := heapOf(func() HeavyHitters {
		hh, err := New(WithEps(0.01), WithPhi(0.05), WithDelta(0.1),
			WithCountWindow(1<<20, 16), WithShards(2), WithUniverse(1<<30), WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		if err := hh.InsertBatch(xs); err != nil {
			t.Fatal(err)
		}
		if blob, err = hh.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
		return hh
	})
	defer hh.Close()
	twin, twinHeap := heapOf(func() HeavyHitters {
		twin, err := Unmarshal(blob)
		if err != nil {
			t.Fatal(err)
		}
		return twin
	})
	defer twin.Close()
	runtime.KeepAlive(xs)
	frame := float64(len(blob))
	t.Logf("model %.1f KiB", float64(hh.ModelBits())/8/1024)
	for _, c := range []struct {
		name string
		heap float64
	}{{"built", heap - frame}, {"restored", twinHeap}} {
		ratio := c.heap / frame
		t.Logf("%s: heap %.1f KiB, checkpoint %.1f KiB: %.1f×", c.name, c.heap/1024, frame/1024, ratio)
		if ratio > maxRatio {
			t.Errorf("%s window holds %.1f× its checkpoint bytes on the heap, want ≤ %d×", c.name, ratio, maxRatio)
		}
	}
}
