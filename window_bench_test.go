package l1hh

// E10 — sliding-window overhead (DESIGN.md §5): what windowing costs
// relative to a whole-stream solver, on both the ingest path (bucket
// rotation every ⌈W/B⌉ items) and the report path (the B+1-way bucket
// fold). Space is the usual "model-bits" custom metric: a B-bucket
// window honestly costs B+1 sketches of window scale.

import (
	"fmt"
	"testing"
	"time"
)

// windowBenchConfig sizes the solvers for a 2¹⁷-item window over the
// shared zipf-flavoured planted stream.
func windowBenchConfig() config {
	return config{
		Eps: 0.02, Phi: 0.1, Delta: 0.05,
		Universe: 1 << 32, Seed: 2,
	}
}

// BenchmarkWindowedInsert compares the serial whole-stream insert path
// against windowed inserts at several granularities B.
func BenchmarkWindowedInsert(b *testing.B) {
	const w = 1 << 17
	b.Run("whole-stream", func(b *testing.B) {
		cfg := windowBenchConfig()
		cfg.StreamLength = uint64(len(benchStream))
		benchPasses(b, len(benchStream), func() (func(int), func() int64) {
			hh, err := buildSerial(cfg)
			if err != nil {
				b.Fatal(err)
			}
			return func(k int) {
				for _, x := range benchStream[:k] {
					hh.Insert(x)
				}
			}, hh.ModelBits
		})
	})
	for _, buckets := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("window/buckets=%d", buckets), func(b *testing.B) {
			hh, err := buildWindowed(windowConfig{
				config: windowBenchConfig(), Window: w, WindowBuckets: buckets,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hh.Insert(benchStream[i&(1<<20-1)])
			}
			b.StopTimer()
			reportBits(b, hh)
		})
	}
	b.Run("window/duration", func(b *testing.B) {
		cfg := windowBenchConfig()
		cfg.StreamLength = w // expected per-window mass
		hh, err := buildWindowed(windowConfig{
			config: cfg, WindowDuration: time.Hour,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			hh.Insert(benchStream[i&(1<<20-1)])
		}
		b.StopTimer()
		reportBits(b, hh)
	})
}

// fullRingWindow builds a window of the given granularity over a
// 2¹⁷-item count window and fills its ring: the steady state the report
// and checkpoint rows measure.
func fullRingWindow(b *testing.B, buckets int) *windowedSolver {
	hh, err := buildWindowed(windowConfig{
		config: windowBenchConfig(), Window: 1 << 17, WindowBuckets: buckets,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < (1<<17)+(1<<14); i++ {
		hh.Insert(benchStream[i&(1<<20-1)])
	}
	return hh
}

// BenchmarkWindowedReport measures the report-path fold: decode the
// oldest sealed frame, decode and merge the other sealed frames one at a
// time, merge the open bucket, report on the combined state.
func BenchmarkWindowedReport(b *testing.B) {
	for _, buckets := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("buckets=%d", buckets), func(b *testing.B) {
			hh := fullRingWindow(b, buckets)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rep := hh.Report(); len(rep) == 0 {
					b.Fatal("empty report")
				}
			}
		})
	}
}

// BenchmarkWindowedMarshal measures a full-ring window's checkpoint
// encode: the sealed buckets' frames and the open bucket's engine.
func BenchmarkWindowedMarshal(b *testing.B) {
	for _, buckets := range []int{4, 16} {
		b.Run(fmt.Sprintf("buckets=%d", buckets), func(b *testing.B) {
			hh := fullRingWindow(b, buckets)
			var blob []byte
			var err error
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if blob, err = hh.MarshalBinary(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(len(blob)), "frame-bytes")
		})
	}
}

// BenchmarkWindowedShardedInsert: the windowed engines behind the
// concurrent sharded ingest path, as cmd/hhd runs them.
func BenchmarkWindowedShardedInsert(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			hh, err := newShardedSolver(shardedConfig{
				config: windowBenchConfig(),
				Shards: shards,
				Window: 1 << 17,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer hh.Close()
			benchInsertChunks(b, hh, benchStream)
			reportBits(b, hh)
		})
	}
}
