package l1hh_test

// Godoc examples for the public API. Each runs as a test and its output
// is verified, so the documentation cannot rot.

import (
	"fmt"
	"math"

	l1hh "repro"
)

func ExampleNew() {
	// The unified front door: one constructor, functional options.
	// AlgorithmSimple counts exactly on streams within its sample budget,
	// which keeps this example's output deterministic.
	hh, err := l1hh.New(
		l1hh.WithEps(0.05), l1hh.WithPhi(0.2),
		l1hh.WithStreamLength(1000), l1hh.WithUniverse(1<<20),
		l1hh.WithAlgorithm(l1hh.AlgorithmSimple), l1hh.WithSeed(1),
	)
	if err != nil {
		panic(err)
	}
	// Item 7 takes half the stream, the rest is spread thin.
	for i := 0; i < 1000; i++ {
		x := uint64(1000 + i)
		if i%2 == 0 {
			x = 7
		}
		if err := hh.Insert(x); err != nil {
			panic(err)
		}
	}
	for _, r := range hh.Report() {
		fmt.Printf("item %d ≈ %.0f of %d\n", r.Item, math.Round(r.F/100)*100, hh.Len())
	}
	// After Close, inserts refuse instead of silently dropping.
	hh.Close()
	fmt.Println("insert after close:", hh.Insert(7) != nil)
	// Output:
	// item 7 ≈ 500 of 1000
	// insert after close: true
}

func ExampleNew_sharded() {
	// WithShards turns the same problem into a concurrent engine: any
	// number of goroutines may InsertBatch. Capabilities are discovered
	// by type assertion, not concrete types.
	hh, err := l1hh.New(
		l1hh.WithEps(0.05), l1hh.WithPhi(0.2),
		l1hh.WithStreamLength(1000), l1hh.WithUniverse(1<<20),
		l1hh.WithAlgorithm(l1hh.AlgorithmSimple), l1hh.WithSeed(2),
		l1hh.WithShards(4),
	)
	if err != nil {
		panic(err)
	}
	defer hh.Close()
	batch := make([]l1hh.Item, 0, 1000)
	for i := 0; i < 1000; i++ {
		if i%2 == 0 {
			batch = append(batch, 7)
		} else {
			batch = append(batch, uint64(1000+i))
		}
	}
	if err := hh.InsertBatch(batch); err != nil {
		panic(err)
	}
	st := hh.Stats()
	_, mergeable := hh.(l1hh.Merger)
	fmt.Printf("items %d across %d shards; mergeable: %v\n", st.Len, st.Shards, mergeable)
	for _, r := range hh.Report() {
		fmt.Printf("item %d ≈ %.0f\n", r.Item, r.F)
	}
	// Output:
	// items 1000 across 4 shards; mergeable: true
	// item 7 ≈ 499
}

func ExampleNew_window() {
	// WithCountWindow answers "heavy RIGHT NOW": the last w items, not
	// the whole stream. The Windower capability exposes the coverage.
	hh, err := l1hh.New(
		l1hh.WithEps(0.1), l1hh.WithPhi(0.3), l1hh.WithUniverse(1<<20),
		l1hh.WithAlgorithm(l1hh.AlgorithmSimple), l1hh.WithSeed(1),
		l1hh.WithCountWindow(100, 0),
	)
	if err != nil {
		panic(err)
	}
	for i := 0; i < 500; i++ {
		hh.Insert(7) // old regime
	}
	for i := 0; i < 200; i++ {
		hh.Insert(9) // new regime: item 9 takes over
	}
	for _, r := range hh.Report() {
		fmt.Printf("trending: item %d ≈ %.0f of the last %d\n", r.Item, r.F, hh.Len())
	}
	fmt.Printf("retired: %d items aged out\n", hh.(l1hh.Windower).WindowStats().Retired)
	// Output:
	// trending: item 9 ≈ 102 of the last 102
	// retired: 598 items aged out
}

func ExampleUnmarshal() {
	// One Unmarshal restores every checkpoint container this package
	// produces — serial, sharded, windowed — behind the same interface.
	hh, _ := l1hh.New(
		l1hh.WithEps(0.1), l1hh.WithPhi(0.4),
		l1hh.WithStreamLength(200), l1hh.WithUniverse(1<<10), l1hh.WithSeed(5),
	)
	for i := 0; i < 100; i++ {
		hh.Insert(9)
	}
	blob, _ := hh.MarshalBinary() // checkpoint
	restored, _ := l1hh.Unmarshal(blob)
	for i := 0; i < 100; i++ {
		restored.Insert(9) // resume on the copy
	}
	fmt.Println("items reported:", len(restored.Report()))
	// Output:
	// items reported: 1
}

func ExampleWithProblem_maximum() {
	// MaxFrequencyProblem answers the ε-Maximum problem through the
	// Extremes capability.
	hh, err := l1hh.New(
		l1hh.WithProblem(l1hh.MaxFrequencyProblem),
		l1hh.WithEps(0.1), l1hh.WithDelta(0.05),
		l1hh.WithStreamLength(300), l1hh.WithUniverse(100), l1hh.WithSeed(2),
	)
	if err != nil {
		panic(err)
	}
	for i := 0; i < 300; i++ {
		hh.Insert(uint64(i % 3)) // 0, 1, 2 equally often …
	}
	for i := 0; i < 150; i++ {
		hh.Insert(2) // … and 2 gets a surge
	}
	top, _, _ := hh.(l1hh.Extremes).MaxItem()
	fmt.Println("most frequent:", top.Item)
	// Output:
	// most frequent: 2
}

func ExampleWithProblem_minimum() {
	// MinFrequencyProblem answers the ε-Minimum problem over a small
	// universe through the Extremes capability.
	hh, err := l1hh.New(
		l1hh.WithProblem(l1hh.MinFrequencyProblem),
		l1hh.WithEps(0.1), l1hh.WithDelta(0.05),
		l1hh.WithStreamLength(900), l1hh.WithUniverse(4), l1hh.WithSeed(3),
	)
	if err != nil {
		panic(err)
	}
	for i := 0; i < 900; i++ {
		hh.Insert(uint64(i % 3)) // item 3 never occurs
	}
	least, _, _ := hh.(l1hh.Extremes).MinItem()
	fmt.Println("least frequent:", least.Item)
	// Output:
	// least frequent: 3
}

func ExampleWithProblem_borda() {
	// BordaProblem ingests ballots through the Voter capability; ϕ is
	// the (ε,ϕ)-List threshold, which Winner does not use.
	hh, err := l1hh.New(
		l1hh.WithProblem(l1hh.BordaProblem), l1hh.WithCandidates(3),
		l1hh.WithEps(0.05), l1hh.WithPhi(0.5),
		l1hh.WithStreamLength(2), l1hh.WithSeed(4),
	)
	if err != nil {
		panic(err)
	}
	v := hh.(l1hh.Voter)
	v.Vote(l1hh.Ranking{2, 0, 1}) // 2 ≻ 0 ≻ 1
	v.Vote(l1hh.Ranking{2, 1, 0}) // 2 ≻ 1 ≻ 0
	winner, score := v.Winner()
	fmt.Printf("Borda winner %d with score %.0f\n", winner, score)
	// Output:
	// Borda winner 2 with score 4
}

func ExampleMerger() {
	// Two nodes built from the SAME options (seed included) each ingest a
	// slice of the stream; folding one's checkpoint into the other
	// answers for the concatenation, as if one solver had seen everything
	// (DESIGN.md §7).
	opts := []l1hh.Option{
		l1hh.WithEps(0.1), l1hh.WithPhi(0.4), l1hh.WithDelta(0.05),
		l1hh.WithStreamLength(400), l1hh.WithUniverse(1 << 10),
		l1hh.WithAlgorithm(l1hh.AlgorithmSimple), l1hh.WithSeed(3),
	}
	nodeA, _ := l1hh.New(opts...)
	nodeB, _ := l1hh.New(opts...)
	for i := 0; i < 100; i++ {
		nodeA.Insert(9) // node A's slice: all 9s
		nodeB.Insert(9) // node B's slice: 9s and 4s
		nodeB.Insert(4)
	}
	blob, _ := nodeB.MarshalBinary()
	if err := nodeA.(l1hh.Merger).Merge(blob); err != nil {
		panic(err)
	}
	for _, r := range nodeA.Report() {
		fmt.Printf("item %d ≈ %.0f of %d\n", r.Item, r.F, nodeA.Len())
	}
	// Output:
	// item 9 ≈ 200 of 300
}
