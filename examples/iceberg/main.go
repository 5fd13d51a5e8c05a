// Iceberg: the classic "iceberg query" of the paper's introduction
// ([FSG+98, BR99]: find the GROUP BY rows whose aggregate exceeds a
// threshold, without materializing the aggregation).
//
// Here a retailer's sales feed streams (store, product) pairs and the
// analyst wants every pair accounting for ≥ 1% of the volume. One
// solver answers the query in one pass. The example also shows the
// distributed pattern: two same-seed nodes each see half of the feed,
// and one folds the other's checkpoint through the Merger capability,
// after which it answers for the whole feed.
//
//	go run ./examples/iceberg
package main

import (
	"fmt"
	"log"

	l1hh "repro"
)

func pairID(store, product uint64) l1hh.Item { return store<<32 | product }

func main() {
	const (
		m   = 600_000
		eps = 0.002
		phi = 0.01
	)

	// Every node is built from the same options, seed included, and
	// declares the global stream length: that is what lets their states
	// fold (DESIGN.md §7).
	newNode := func() l1hh.HeavyHitters {
		hh, err := l1hh.New(
			l1hh.WithEps(eps), l1hh.WithPhi(phi), l1hh.WithDelta(0.05),
			l1hh.WithStreamLength(m), l1hh.WithUniverse(1<<62), l1hh.WithSeed(21),
		)
		if err != nil {
			log.Fatal(err)
		}
		return hh
	}
	hh := newNode()                      // sees the whole feed
	nodeA, nodeB := newNode(), newNode() // each sees half of it

	// Hot pairs: store 3 sells product 12 heavily, store 9 product 4.
	gen := l1hh.NewPlantedStream(22, []float64{0.05, 0.02}, 1000, 1<<20)
	exact := map[l1hh.Item]int{}
	for i := 0; i < m; i++ {
		raw := gen.Next()
		var id l1hh.Item
		switch raw {
		case 0:
			id = pairID(3, 12)
		case 1:
			id = pairID(9, 4)
		default:
			id = pairID(raw%50, raw%1000) // long tail
		}
		node := nodeA
		if i%2 == 1 {
			node = nodeB
		}
		for _, s := range []l1hh.HeavyHitters{hh, node} {
			if err := s.Insert(id); err != nil {
				log.Fatal(err)
			}
		}
		exact[id]++
	}

	fmt.Printf("sales records : %d   threshold: ≥ %.0f (ϕ = %.1f%%)\n\n", m, phi*m, phi*100)

	fmt.Println("— one-pass optimal algorithm (Theorem 2) —")
	printReport(hh.Report(), exact)

	// Ship node B's state to node A and fold it in.
	blob, err := nodeB.MarshalBinary()
	if err != nil {
		log.Fatal(err)
	}
	if err := nodeA.(l1hh.Merger).Merge(blob); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n— two half-feed nodes folded through Merger —")
	printReport(nodeA.Report(), exact)
	fmt.Printf("\nsketch sizes: one-pass %d bits, merged node %d bits, checkpoint %d bytes\n",
		hh.ModelBits(), nodeA.ModelBits(), len(blob))
}

// printReport lists the reported (store, product) pairs beside their
// exact counts.
func printReport(rep []l1hh.ItemEstimate, exact map[l1hh.Item]int) {
	fmt.Println("store  product   estimate    exact")
	for _, r := range rep {
		fmt.Printf("%5d  %7d  %9.0f  %7d\n",
			r.Item>>32, r.Item&0xFFFFFFFF, r.F, exact[r.Item])
	}
}
