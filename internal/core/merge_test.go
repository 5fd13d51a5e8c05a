package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/exact"
	"repro/internal/merge"
	"repro/internal/rng"
	"repro/internal/stream"
)

// buildSplit feeds a planted stream across k same-seed instances in
// contiguous chunks (the distributed split: each node sees one slice) and
// returns the instances plus ground truth.
func buildSplit[T interface {
	Insert(uint64)
}](t *testing.T, mk func() T, k, m int, streamSeed uint64) ([]T, *exact.Counter) {
	t.Helper()
	xs := plantedHH(streamSeed, m, stream.Shuffled)
	truth := exact.New()
	nodes := make([]T, k)
	for i := range nodes {
		nodes[i] = mk()
	}
	chunk := (m + k - 1) / k
	for i, x := range xs {
		truth.Insert(x)
		nodes[i/chunk].Insert(x)
	}
	return nodes, truth
}

// TestSimpleListMergeConformance: folding k same-seed instances that each
// saw a slice of the stream satisfies the serial solver's (ε,ϕ)
// guarantees against the full stream.
func TestSimpleListMergeConformance(t *testing.T) {
	const m = 400000
	cfg := listConfig(m)
	for _, k := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			mk := func() *SimpleList {
				a, err := NewSimpleList(rng.New(11), cfg)
				if err != nil {
					t.Fatal(err)
				}
				return a
			}
			nodes, truth := buildSplit(t, mk, k, m, 71)
			for _, n := range nodes[1:] {
				if err := nodes[0].Merge(n); err != nil {
					t.Fatal(err)
				}
			}
			if nodes[0].Len() != m {
				t.Fatalf("merged Len = %d, want %d", nodes[0].Len(), m)
			}
			if err := exact.Audit(truth, nodes[0].Report(), cfg.Eps, cfg.Phi).Err(); err != nil {
				t.Errorf("merged report violates the (ε,ϕ) guarantees: %v", err)
			}
		})
	}
}

// TestOptimalMergeConformance: same for Algorithm 2, whose accelerated
// counters and pre-epoch credit make merging non-trivial.
func TestOptimalMergeConformance(t *testing.T) {
	const m = 400000
	cfg := listConfig(m)
	for _, k := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			mk := func() *Optimal {
				a, err := NewOptimal(rng.New(13), cfg)
				if err != nil {
					t.Fatal(err)
				}
				return a
			}
			nodes, truth := buildSplit(t, mk, k, m, 73)
			for _, n := range nodes[1:] {
				if err := nodes[0].Merge(n); err != nil {
					t.Fatal(err)
				}
			}
			if nodes[0].Len() != m {
				t.Fatalf("merged Len = %d, want %d", nodes[0].Len(), m)
			}
			if err := exact.Audit(truth, nodes[0].Report(), cfg.Eps, cfg.Phi).Err(); err != nil {
				t.Errorf("merged report violates the (ε,ϕ) guarantees: %v", err)
			}
		})
	}
}

// TestMergeCommutative: A←B and B←A report identically, for both
// engines.
func TestMergeCommutative(t *testing.T) {
	const m = 200000
	cfg := listConfig(m)
	t.Run("simple", func(t *testing.T) {
		mk := func() *SimpleList {
			a, err := NewSimpleList(rng.New(17), cfg)
			if err != nil {
				t.Fatal(err)
			}
			return a
		}
		ab, _ := buildSplit(t, mk, 2, m, 77)
		ba, _ := buildSplit(t, mk, 2, m, 77)
		if err := ab[0].Merge(ab[1]); err != nil {
			t.Fatal(err)
		}
		if err := ba[1].Merge(ba[0]); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(ab[0].Report()) != fmt.Sprint(ba[1].Report()) {
			t.Fatalf("A←B and B←A reports differ:\n%v\n%v", ab[0].Report(), ba[1].Report())
		}
	})
	t.Run("optimal", func(t *testing.T) {
		mk := func() *Optimal {
			a, err := NewOptimal(rng.New(19), cfg)
			if err != nil {
				t.Fatal(err)
			}
			return a
		}
		ab, _ := buildSplit(t, mk, 2, m, 79)
		ba, _ := buildSplit(t, mk, 2, m, 79)
		if err := ab[0].Merge(ab[1]); err != nil {
			t.Fatal(err)
		}
		if err := ba[1].Merge(ba[0]); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(ab[0].Report()) != fmt.Sprint(ba[1].Report()) {
			t.Fatalf("A←B and B←A reports differ:\n%v\n%v", ab[0].Report(), ba[1].Report())
		}
	})
}

// TestMergedOptimalRoundTrips: a merged Algorithm 2 instance (carrying
// pre-credit) survives Marshal/Unmarshal unchanged — same report, and
// re-marshalling reproduces the same bytes.
func TestMergedOptimalRoundTrips(t *testing.T) {
	const m = 200000
	cfg := listConfig(m)
	mk := func() *Optimal {
		a, err := NewOptimal(rng.New(23), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	nodes, _ := buildSplit(t, mk, 2, m, 83)
	if err := nodes[0].Merge(nodes[1]); err != nil {
		t.Fatal(err)
	}
	if nodes[0].pre.pages == nil {
		t.Fatal("expected the merged instance to carry pre-credit (heavy buckets crossed the epoch base on both nodes)")
	}
	blob, err := nodes[0].MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Optimal
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(back.Report()) != fmt.Sprint(nodes[0].Report()) {
		t.Fatal("report changed across Marshal/Unmarshal of a merged instance")
	}
	blob2, err := back.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Fatal("re-marshalled bytes differ")
	}
}

// TestMergeRejectsIncompatible: mismatched parameters, seeds, or
// self-merge must error (wrapping merge.ErrIncompatible) and leave the
// receiver usable.
func TestMergeRejectsIncompatible(t *testing.T) {
	cfg := listConfig(100000)
	a, err := NewSimpleList(rng.New(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(a); !errors.Is(err, merge.ErrIncompatible) {
		t.Fatalf("self-merge: %v", err)
	}
	otherSeed, _ := NewSimpleList(rng.New(2), cfg)
	if err := a.Merge(otherSeed); !errors.Is(err, merge.ErrIncompatible) {
		t.Fatalf("different seed accepted: %v", err)
	}
	cfg2 := cfg
	cfg2.Eps = 0.04
	otherCfg, _ := NewSimpleList(rng.New(1), cfg2)
	if err := a.Merge(otherCfg); !errors.Is(err, merge.ErrIncompatible) {
		t.Fatalf("different config accepted: %v", err)
	}

	o, err := NewOptimal(rng.New(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Merge(o); !errors.Is(err, merge.ErrIncompatible) {
		t.Fatalf("optimal self-merge: %v", err)
	}
	oSeed, _ := NewOptimal(rng.New(2), cfg)
	if err := o.Merge(oSeed); !errors.Is(err, merge.ErrIncompatible) {
		t.Fatalf("optimal different seed accepted: %v", err)
	}

	// A failed merge leaves the receiver usable.
	a.Insert(42)
	_ = a.Report()
	o.Insert(42)
	_ = o.Report()
}
