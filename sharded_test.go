package l1hh

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/shard"
)

// shardedTestConfig is a moderate workload the guarantee tests share:
// three planted heavy hitters over uniform noise.
var shardedTestWeights = []float64{0.20, 0.12, 0.06} // heavy at ids 0,1,2

// newShardedSolver builds a sharded solver for cfg with no clock
// override and no ingest hooks.
func newShardedSolver(cfg shardedConfig) (*shardedSolver, error) {
	return buildSharded(cfg, nil, shard.Hooks{})
}

// restoreSharded decodes a tag 3 or 5 checkpoint with default runtime
// tuning.
func restoreSharded(blob []byte) (*shardedSolver, error) {
	return unmarshalSharded(blob, 0, 0, nil, shard.Hooks{})
}

func newShardedForTest(t *testing.T, shards int, seed uint64, m int) (*shardedSolver, []Item) {
	t.Helper()
	stream := GeneratePlantedStream(seed+1000, m, shardedTestWeights, 100, 1<<30, OrderShuffled)
	hh, err := newShardedSolver(shardedConfig{
		config: config{
			Eps: 0.02, Phi: 0.05, Delta: 0.05,
			StreamLength: uint64(m), Universe: 1 << 32, Seed: seed,
		},
		Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	return hh, stream
}

// checkGuarantees asserts the (ε,ϕ) contract against the planted truth:
// every ϕ-heavy planted item present with estimate within ε·m; nothing
// reported whose true frequency is ≤ (ϕ−ε)·m.
func checkGuarantees(t *testing.T, rep []ItemEstimate, stream []Item, eps, phi float64) {
	t.Helper()
	m := float64(len(stream))
	truth := map[Item]float64{}
	for _, x := range stream {
		truth[x]++
	}
	reported := map[Item]float64{}
	for _, r := range rep {
		reported[r.Item] = r.F
	}
	for x, f := range truth {
		if f >= phi*m {
			est, ok := reported[x]
			if !ok {
				t.Errorf("ϕ-heavy item %d (f=%.0f ≥ %.0f) missing from report", x, f, phi*m)
				continue
			}
			if est < f-eps*m || est > f+eps*m {
				t.Errorf("item %d estimate %.0f outside %.0f ± %.0f", x, est, f, eps*m)
			}
		}
	}
	for x := range reported {
		if truth[x] <= (phi-eps)*m {
			t.Errorf("light item %d (f=%.0f ≤ %.0f) falsely reported", x, truth[x], (phi-eps)*m)
		}
	}
}

// TestShardedGuarantees: the sharded solver satisfies the same (ε,ϕ)
// contract as the serial one, across shard counts and both engines.
func TestShardedGuarantees(t *testing.T) {
	const m = 200_000
	for _, shards := range []int{1, 2, 4, 8} {
		for _, algo := range []Algorithm{AlgorithmOptimal, AlgorithmSimple} {
			t.Run(fmt.Sprintf("shards=%d/algo=%d", shards, algo), func(t *testing.T) {
				stream := GeneratePlantedStream(31, m, shardedTestWeights, 100, 1<<30, OrderShuffled)
				hh, err := newShardedSolver(shardedConfig{
					config: config{
						Eps: 0.02, Phi: 0.05, Delta: 0.05,
						StreamLength: m, Universe: 1 << 32,
						Algorithm: algo, Seed: uint64(7 + shards),
					},
					Shards: shards,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer hh.Close()
				for off := 0; off < m; off += 10_000 {
					end := min(off+10_000, m)
					if err := hh.InsertBatch(stream[off:end]); err != nil {
						t.Fatal(err)
					}
				}
				checkGuarantees(t, hh.Report(), stream, 0.02, 0.05)
				if got := hh.Len(); got != m {
					t.Fatalf("Len() = %d, want %d", got, m)
				}
			})
		}
	}
}

// TestShardedConcurrentProducers drives many goroutines through
// InsertBatch (run under -race in CI) and checks the report is still
// correct: concurrency must not lose, duplicate or corrupt items.
func TestShardedConcurrentProducers(t *testing.T) {
	const m = 160_000
	const producers = 8
	hh, stream := newShardedForTest(t, 4, 3, m)
	defer hh.Close()

	chunk := m / producers
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(part []Item) {
			defer wg.Done()
			for off := 0; off < len(part); off += 1000 {
				end := min(off+1000, len(part))
				if err := hh.InsertBatch(part[off:end]); err != nil {
					t.Error(err)
					return
				}
			}
		}(stream[p*chunk : (p+1)*chunk])
	}
	// A concurrent reader exercises the barrier paths mid-ingest.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5; i++ {
			_ = hh.Report()
			_ = hh.Stats() // queue depths and the accepted-items counter
		}
	}()
	wg.Wait()
	<-done
	if got := hh.Len(); got != m {
		t.Fatalf("Len() = %d, want %d (items lost or duplicated)", got, m)
	}
	checkGuarantees(t, hh.Report(), stream, 0.02, 0.05)
}

// TestShardedCheckpointRoundTrip: checkpoint mid-stream, restore, feed
// both the same tail — reports and re-checkpoints must agree exactly.
func TestShardedCheckpointRoundTrip(t *testing.T) {
	const m = 100_000
	hh, stream := newShardedForTest(t, 4, 5, m)
	defer hh.Close()
	if err := hh.InsertBatch(stream[:m/2]); err != nil {
		t.Fatal(err)
	}
	blob, err := hh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := restoreSharded(blob)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if got, want := restored.Shards(), hh.Shards(); got != want {
		t.Fatalf("restored shards = %d, want %d", got, want)
	}
	if err := hh.InsertBatch(stream[m/2:]); err != nil {
		t.Fatal(err)
	}
	if err := restored.InsertBatch(stream[m/2:]); err != nil {
		t.Fatal(err)
	}
	a, b := hh.Report(), restored.Report()
	if len(a) == 0 {
		t.Fatal("empty report on a stream with planted heavy hitters")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("reports diverge after restore:\n%v\n%v", a, b)
	}
	ba, err := hh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := restored.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba, bb) {
		t.Fatal("checkpoints diverge after identical tails")
	}
}

// TestShardedDeterminism: fixed seed + fixed shard count ⇒ identical
// reports and identical checkpoint bytes across runs.
func TestShardedDeterminism(t *testing.T) {
	const m = 80_000
	run := func() ([]ItemEstimate, []byte) {
		hh, stream := newShardedForTest(t, 4, 9, m)
		defer hh.Close()
		if err := hh.InsertBatch(stream); err != nil {
			t.Fatal(err)
		}
		blob, err := hh.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		return hh.Report(), blob
	}
	r1, b1 := run()
	r2, b2 := run()
	if fmt.Sprint(r1) != fmt.Sprint(r2) {
		t.Fatalf("reports not deterministic:\n%v\n%v", r1, r2)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("checkpoint bytes not deterministic")
	}
}

// TestShardedCloseThenReport: the graceful-drain path — close, then take
// the final report inline.
func TestShardedCloseThenReport(t *testing.T) {
	const m = 60_000
	hh, stream := newShardedForTest(t, 3, 13, m)
	if err := hh.InsertBatch(stream); err != nil {
		t.Fatal(err)
	}
	if err := hh.Close(); err != nil {
		t.Fatal(err)
	}
	if err := hh.InsertBatch(stream[:1]); err != shard.ErrClosed {
		t.Fatalf("InsertBatch after Close = %v, want shard.ErrClosed", err)
	}
	checkGuarantees(t, hh.Report(), stream, 0.02, 0.05)
	if _, err := hh.MarshalBinary(); err != nil {
		t.Fatal("checkpoint after Close:", err)
	}
}

// TestShardedRejectsBadConfig mirrors the serial constructor's
// validation through the sharded path.
func TestShardedRejectsBadConfig(t *testing.T) {
	_, err := newShardedSolver(shardedConfig{
		config: config{Eps: 0.5, Phi: 0.1, Delta: 0.05, // eps ≥ phi
			StreamLength: 1000, Universe: 1 << 16},
		Shards: 2,
	})
	if err == nil {
		t.Fatal("eps ≥ phi accepted")
	}
	_, err = newShardedSolver(shardedConfig{
		config: config{Eps: 0.01, Phi: 0.05, Delta: 0.05,
			StreamLength: 1000, Universe: 1 << 16},
		Shards: -4,
	})
	if err == nil {
		t.Fatal("negative shard count accepted")
	}
}

// TestUnmarshalShardedRejectsCorrupt: wrong tag, truncation, garbage.
func TestUnmarshalShardedRejectsCorrupt(t *testing.T) {
	hh, stream := newShardedForTest(t, 2, 17, 10_000)
	defer hh.Close()
	if err := hh.InsertBatch(stream[:10_000]); err != nil {
		t.Fatal(err)
	}
	blob, err := hh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restoreSharded(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := unmarshalSharded(blob[:len(blob)/2], 0, 0, nil, shard.Hooks{}); err == nil {
		t.Fatal("truncation accepted")
	}
	wrongTag := append([]byte{}, blob...)
	wrongTag[0] = tagOptimal
	if _, err := restoreSharded(wrongTag); err == nil {
		t.Fatal("wrong tag accepted")
	}
	if _, err := unmarshalSharded(append(blob, 0x00), 0, 0, nil, shard.Hooks{}); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestShardedUnknownLengthIngest: StreamLength 0 engages the per-shard
// unknown-length solvers; ingest and report work, checkpointing is
// explicitly unsupported.
func TestShardedUnknownLengthIngest(t *testing.T) {
	const m = 120_000
	stream := GeneratePlantedStream(51, m, []float64{0.25, 0.15}, 100, 1<<30, OrderShuffled)
	hh, err := newShardedSolver(shardedConfig{
		config: config{
			Eps: 0.05, Phi: 0.12, Delta: 0.05,
			Universe: 1 << 32, Seed: 19, // StreamLength 0 = unknown
		},
		Shards: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer hh.Close()
	if err := hh.InsertBatch(stream); err != nil {
		t.Fatal(err)
	}
	checkGuarantees(t, hh.Report(), stream, 0.05, 0.12)
	if _, err := hh.MarshalBinary(); err == nil {
		t.Fatal("unknown-length checkpoint must fail")
	}
}
