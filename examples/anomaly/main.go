// Anomaly: defective-sensor detection via ε-Minimum — the paper's §1.2
// motivation ("Sensors which send a small number of packets may be down
// or defective, and an algorithm for the ε-Minimum problem could find
// such sensors").
//
// A fleet of sensors broadcasts packets; the monitor watches only the
// "From:" field. Healthy sensors transmit at roughly equal rates; one is
// failing and transmits almost nothing. The ε-Minimum solver pinpoints it
// in O(ε⁻¹·log log) bits, without per-sensor counters.
//
//	go run ./examples/anomaly
package main

import (
	"fmt"
	"log"

	l1hh "repro"
)

func main() {
	const (
		sensors = 64
		failing = 41 // the defective unit
		packets = 2_000_000
		eps     = 0.01
	)

	mn, err := l1hh.New(l1hh.WithProblem(l1hh.MinFrequencyProblem),
		l1hh.WithEps(eps), l1hh.WithDelta(0.05),
		l1hh.WithStreamLength(packets), l1hh.WithUniverse(sensors), l1hh.WithSeed(13))
	if err != nil {
		log.Fatal(err)
	}

	// Healthy sensors share the traffic evenly; the failing sensor gets
	// through only one packet in ten thousand.
	gen := l1hh.NewUniformStream(17, sensors)
	exact := make([]int, sensors)
	sent := 0
	for sent < packets {
		x := gen.Next()
		if x == failing {
			// Drop 9999 of 10000 of the failing sensor's packets.
			if sent%10000 != 0 {
				continue
			}
		}
		if err := mn.Insert(x); err != nil {
			log.Fatal(err)
		}
		exact[x]++
		sent++
	}

	r, bound, err := mn.(l1hh.Extremes).MinItem()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("packets observed : %d from %d sensors\n", packets, sensors)
	fmt.Printf("monitor state    : %d bits\n\n", mn.ModelBits())
	fmt.Printf("flagged sensor   : #%d\n", r.Item)
	fmt.Printf("estimated packets: %.0f ± %.0f   (exact: %d)\n", r.F, bound, exact[r.Item])
	if r.Item == failing {
		fmt.Println("\nthe defective sensor was identified correctly.")
	} else {
		fmt.Printf("\nflagged #%d; the planted defect was #%d (both are ε-minimal if their rates are within ε·m).\n",
			r.Item, failing)
	}
}
