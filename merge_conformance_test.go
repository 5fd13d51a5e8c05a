package l1hh

// Statistical conformance suite for the distributed merge tier: the
// merged report of K independently-fed nodes must satisfy the same (ε,ϕ)
// guarantees as one solver over the concatenated stream. Streams cover
// the easy case (zipf), the no-skew-but-heavy case (uniform over a tiny
// support), and adversarial arrangements (all heavy items delivered
// last, and sorted runs), all with fixed seeds.

import (
	"fmt"
	"testing"
)

const (
	confEps = 0.02
	confPhi = 0.05
	confM   = 200_000
)

// conformanceStreams materializes the fixed test streams. Every stream
// has items above ϕ·m and noise below (ϕ−ε)·m.
func conformanceStreams() map[string][]Item {
	return map[string][]Item{
		// Zipf(1.3) over a large universe: a handful of ϕ-heavy ids.
		"zipf": Generate(NewZipfStream(101, 1<<20, 1.3), confM),
		// Uniform over 12 ids: every item is ≈ m/12 ≈ 0.083m ≥ ϕ·m heavy.
		"uniform": Generate(NewUniformStream(103, 12), confM),
		// Adversarially permuted: the planted heavy items arrive only
		// after every node has seen its slice of pure noise — the split
		// maximally skews per-node summaries.
		"heavy-last": GeneratePlantedStream(105, confM,
			[]float64{0.20, 0.12, 0.06}, 100, 1<<30, OrderHeavyLast),
		// Sorted runs: each id's copies are contiguous, so a node can see
		// one id for its entire slice.
		"sorted-runs": GeneratePlantedStream(107, confM,
			[]float64{0.20, 0.12, 0.06}, 100, 1<<30, OrderSorted),
	}
}

// splitAcross builds k same-option nodes through New and feeds stream to
// them in contiguous slices.
func splitAcross(t *testing.T, stream []Item, k int, opts ...Option) []HeavyHitters {
	t.Helper()
	nodes := make([]HeavyHitters, k)
	chunk := (len(stream) + k - 1) / k
	for i := range nodes {
		hh, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { hh.Close() })
		nodes[i] = hh
		lo := i * chunk
		hi := min(lo+chunk, len(stream))
		if lo < hi {
			if err := hh.InsertBatch(stream[lo:hi]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return nodes
}

// foldCheckpoints merges every node after the first into the first
// through the Merger capability, the way a fleet aggregator does.
func foldCheckpoints(t *testing.T, nodes []HeavyHitters) HeavyHitters {
	t.Helper()
	dst := nodes[0].(Merger)
	for _, n := range nodes[1:] {
		blob, err := n.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.Merge(blob); err != nil {
			t.Fatal(err)
		}
	}
	return nodes[0]
}

// TestMergeConformanceSerial: K ∈ {2,4,8} serial nodes, both engines,
// all stream shapes.
func TestMergeConformanceSerial(t *testing.T) {
	for name, stream := range conformanceStreams() {
		for _, k := range []int{2, 4, 8} {
			for _, algo := range []Algorithm{AlgorithmOptimal, AlgorithmSimple} {
				t.Run(fmt.Sprintf("%s/k=%d/algo=%d", name, k, algo), func(t *testing.T) {
					nodes := splitAcross(t, stream, k,
						WithEps(confEps), WithPhi(confPhi), WithDelta(0.05),
						WithStreamLength(confM), WithUniverse(1<<32),
						WithAlgorithm(algo), WithSeed(271))
					merged := foldCheckpoints(t, nodes)
					if got := merged.Len(); got != confM {
						t.Fatalf("merged Len = %d, want %d", got, confM)
					}
					checkGuarantees(t, merged.Report(), stream, confEps, confPhi)
				})
			}
		}
	}
}

// TestMergeConformanceSharded: the same property through the full stack —
// K sharded nodes merged via checkpoints.
func TestMergeConformanceSharded(t *testing.T) {
	stream := conformanceStreams()["zipf"]
	for _, k := range []int{2, 4} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			nodes := splitAcross(t, stream, k,
				WithEps(confEps), WithPhi(confPhi), WithDelta(0.05),
				WithStreamLength(confM), WithUniverse(1<<32), WithSeed(277),
				WithShards(4))
			merged := foldCheckpoints(t, nodes)
			if got := merged.Len(); got != confM {
				t.Fatalf("merged Len = %d, want %d", got, confM)
			}
			checkGuarantees(t, merged.Report(), stream, confEps, confPhi)
		})
	}
}
