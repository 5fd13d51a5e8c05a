package l1hh

import (
	"bytes"
	"fmt"
	"testing"
)

// TestSameSeedSameBytes: WithSeed makes every random choice
// reproducible, so two builds with one seed over one stream hold the
// same state. Each row builds twice and compares the checkpoint bytes;
// an unknown-length row, which does not serialize, compares its report.
// The stream is a mild Zipf whose light ids keep tying in Algorithm 1's
// candidate table, which is where a tie broken in map order would show.
func TestSameSeedSameBytes(t *testing.T) {
	xs := Generate(NewZipfStream(9, 1<<12, 0.6), 4000)
	type row struct {
		name       string
		opts       []Option
		unknownLen bool
		feed       func(HeavyHitters) error
	}
	items := func(hh HeavyHitters) error { return hh.InsertBatch(xs) }
	var rows []row
	for _, algo := range []struct {
		name string
		opt  Option
	}{{"algo1", WithAlgorithm(AlgorithmSimple)}, {"algo2", WithAlgorithm(AlgorithmOptimal)}} {
		for _, sc := range frontDoorScenarios() {
			opts := append(sc.opts[:len(sc.opts):len(sc.opts)], algo.opt)
			if sc.windower {
				// Window frames stamp their buckets with the clock.
				opts = append(opts, WithClock(goldenClock))
			}
			rows = append(rows, row{
				name: algo.name + "/" + sc.name, opts: opts,
				unknownLen: sc.unknownLen, feed: items,
			})
		}
	}
	for _, p := range []Problem{BordaProblem, MaximinProblem} {
		rows = append(rows, row{name: p.String(), opts: votingProblemOpts(p, 4000),
			feed: func(hh HeavyHitters) error {
				for _, rk := range goldenBallots(2000, 6) {
					if err := hh.(Voter).Vote(rk); err != nil {
						return err
					}
				}
				return nil
			}})
	}
	small := make([]Item, len(xs))
	for i, x := range xs {
		small[i] = x % 64
	}
	for _, p := range []Problem{MinFrequencyProblem, MaxFrequencyProblem} {
		rows = append(rows, row{name: p.String(), opts: extremesProblemOpts(p, 4000),
			feed: func(hh HeavyHitters) error { return hh.InsertBatch(small) }})
	}
	rows = append(rows, row{name: HeavyHittersProblem.String(),
		opts: append(goldenOpts(AlgorithmSimple), WithProblem(HeavyHittersProblem)), feed: items})

	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			state := func() []byte {
				hh, err := New(r.opts...)
				if err != nil {
					t.Fatal(err)
				}
				defer hh.Close()
				if err := r.feed(hh); err != nil {
					t.Fatal(err)
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
			if a, b := state(), state(); !bytes.Equal(a, b) {
				t.Fatalf("two builds with one seed hold different state (%d and %d bytes)", len(a), len(b))
			}
		})
	}
}
