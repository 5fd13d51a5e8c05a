package l1hh

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/exact"
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
	if err := exact.Audit(exact.Count(stream), hh.Report(), 0.02, 0.05).Err(); err != nil {
		t.Error(err)
	}
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
	if err := exact.Audit(exact.Count(stream), hh.Report(), 0.02, 0.05).Err(); err != nil {
		t.Error(err)
	}
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
	if err := exact.Audit(exact.Count(stream), hh.Report(), 0.05, 0.12).Err(); err != nil {
		t.Error(err)
	}
	if _, err := hh.MarshalBinary(); err == nil {
		t.Fatal("unknown-length checkpoint must fail")
	}
}

// TestShareSampleClamp pins the conservative clamp of the
// rate-extrapolated window fold (DESIGN.md §8): one row per condition
// under which a shard's share is not trusted, each with the other two
// conditions passing, and one trusted row, whose weight is M/S.
func TestShareSampleClamp(t *testing.T) {
	const now, m = 10_000, 3_000
	// oldest = 6000 prices the covered suffix at a span of 4000 arrivals.
	sample := func(covered, gap uint64, ok bool) shareSample {
		return shareSample{covered: covered, oldest: 6_000, latest: now, gap: gap, ok: ok}
	}
	for _, tc := range []struct {
		name    string
		s       shareSample
		trusted bool
		weight  float64
	}{
		{"no arrival accounting", sample(1_000, 10, false), false, 1},
		{"covered below shareMinSample", sample(shareMinSample-1, 10, true), false, 1},
		{"stamp gap over half the span", sample(1_000, 2_001, true), false, 1},
		{"trusted", sample(1_000, 2_000, true), true, m / 4_000.0},
	} {
		span, ok := tc.s.trustedSpan(now)
		if ok != tc.trusted || (ok && span != 4_000) {
			t.Errorf("%s: trustedSpan = %d, %v; want trusted %v", tc.name, span, ok, tc.trusted)
		}
		if w := tc.s.weight(m, now); w != tc.weight {
			t.Errorf("%s: weight = %g, want %g", tc.name, w, tc.weight)
		}
	}
}
