package l1hh

import (
	"bytes"
	"fmt"
	"testing"
)

// TestInsertBatchSameBytes: a batch takes the engines' batch paths —
// the sampler jumps from one sample to the next, a count window splits
// the batch at each seal, each shard worker keeps its own items of a
// chunk — and none of that may change what the engines hold. Each row
// feeds one stream twice, one Insert per item and InsertBatch calls of
// 1, 777, 4096 and 8193 items in turn, which cross the 8192-item chunks
// of two shards and the count windows' seals, and compares the
// checkpoint bytes, or the reports of an unknown-length row.
//
// The rows are every front-door scenario under both algorithms, the
// ε-Minimum and ε-Maximum engines (tags 9 and 10), and rows declared at
// m = 2²¹ (or a 2²¹-item window), where the sample rate is 2⁻⁵ or
// below and most of every batch is skipped. The sharded windowed
// scenario is left out: its arrival stamps are chunk-granular by design
// (DESIGN.md §8), and TestWindowIdentityDigests pins its bytes.
func TestInsertBatchSameBytes(t *testing.T) {
	const n = 30000
	xs := Generate(NewZipfStream(9, 1<<16, 1.1), n)
	small := make([]Item, n)
	for i, x := range xs {
		small[i] = x % 64
	}
	type row struct {
		name       string
		opts       []Option
		unknownLen bool
		xs         []Item
	}
	var rows []row
	const long = 1 << 21
	for _, algo := range []struct {
		name string
		opt  Option
	}{{"algo1", WithAlgorithm(AlgorithmSimple)}, {"algo2", WithAlgorithm(AlgorithmOptimal)}} {
		for _, sc := range frontDoorScenarios() {
			if sc.windower && sc.sharder {
				continue
			}
			opts := append(sc.opts[:len(sc.opts):len(sc.opts)], algo.opt)
			if sc.windower {
				opts = append(opts, WithClock(goldenClock)) // window frames stamp buckets with the clock
			}
			rows = append(rows, row{name: algo.name + "/" + sc.name, opts: opts, unknownLen: sc.unknownLen, xs: xs})
		}
		base := []Option{WithEps(0.05), WithPhi(0.2), WithDelta(0.05), WithUniverse(1 << 20), WithSeed(7), algo.opt}
		for _, lr := range []struct {
			name  string
			extra []Option
		}{
			{"serial", []Option{WithStreamLength(long)}},
			{"sharded", []Option{WithStreamLength(long), WithShards(2)}},
			{"windowed", []Option{WithCountWindow(long, 128), WithClock(goldenClock)}},
		} {
			rows = append(rows, row{
				name: fmt.Sprintf("%s/%s m=2^21", algo.name, lr.name),
				opts: append(base[:len(base):len(base)], lr.extra...), xs: xs,
			})
		}
	}
	for _, p := range []Problem{MinFrequencyProblem, MaxFrequencyProblem} {
		rows = append(rows, row{name: p.String(), opts: extremesProblemOpts(p, 4000), xs: small})
	}
	rows = append(rows, row{name: MaxFrequencyProblem.String() + " m=2^21",
		opts: extremesProblemOpts(MaxFrequencyProblem, long), xs: small})

	sizes := []int{1, 777, 4096, 8193}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			state := func(batched bool) []byte {
				hh, err := New(r.opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer hh.Close()
				for i, off := 0, 0; off < len(r.xs); i++ {
					if !batched {
						err = hh.Insert(r.xs[off])
						off++
					} else {
						end := min(off+sizes[i%len(sizes)], len(r.xs))
						err = hh.InsertBatch(r.xs[off:end])
						off = end
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				if f, ok := hh.(Flusher); ok {
					f.Flush()
				}
				if r.unknownLen {
					return []byte(fmt.Sprint(hh.Report()))
				}
				blob, err := hh.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				return blob
			}
			if a, b := state(false), state(true); !bytes.Equal(a, b) {
				t.Fatalf("per-item and batched ingest hold different state (%d and %d bytes)", len(a), len(b))
			}
		})
	}
}
