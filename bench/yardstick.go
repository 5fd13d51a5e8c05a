package main

import (
	"sync"
	"time"
)

// The machine the benchmark runs on shares its cores and caches with
// other tenants, and their load changes its speed by up to 1.5× for
// minutes at a time — far longer than one run. Every in-process run
// therefore also times a fixed job of the benchmark's own, the yardstick,
// at points where nothing else runs, and scales its throughput to the
// speed the yardstick reaches at yardRef. The yardstick never changes with
// the code under test, so a change to that code moves the scaled number
// exactly as it moves the raw one.
const (
	// yardItems is the stream prefix one yardstick sample counts.
	yardItems = 1 << 21
	// yardRef is the yardstick's typical speed, in items/s, on the 2-vCPU
	// machine the workloads were sized on.
	yardRef = 2.5e8
	// yardPerPass is how many samples an in-process workload takes before
	// each pass.
	yardPerPass = 2
)

// yardstick is a memory-bound exact count, the access pattern of the
// sketch tables: two goroutines each count half of the stream prefix
// into a private 16 MiB table.
type yardstick struct {
	src   []uint64
	tabs  [2][]uint32
	items int
	took  time.Duration
}

func newYardstick(in *input) *yardstick {
	return &yardstick{
		src:  in.items[:min(yardItems, len(in.items))],
		tabs: [2][]uint32{make([]uint32, 1<<22), make([]uint32, 1<<22)},
	}
}

// sample times one count of the prefix.
func (y *yardstick) sample() {
	t0 := time.Now()
	var wg sync.WaitGroup
	half := len(y.src) / 2
	for g, tab := range y.tabs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, x := range y.src[g*half : (g+1)*half] {
				tab[(x*0x9E3779B97F4A7C15)>>42]++
			}
		}()
	}
	wg.Wait()
	y.took += time.Since(t0)
	y.items += 2 * half
}

// samples takes n samples in a row.
func (y *yardstick) samples(n int) {
	for i := 0; i < n; i++ {
		y.sample()
	}
}

// speed is the yardstick's throughput over every sample, in items/s.
func (y *yardstick) speed() float64 { return float64(y.items) / y.took.Seconds() }

// scale is the factor that converts a duration measured in this run to
// one at yardRef: below 1 when the machine ran slow.
func (y *yardstick) scale() float64 { return y.speed() / yardRef }
