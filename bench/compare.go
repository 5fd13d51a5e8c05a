package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the compare mode reads.
type benchmarkFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
}

// compareMain compares two --out files of untraced runs, A the parent and
// B the change, metric by metric and workload by workload, under the
// bounds BENCHMARK.json fixes. It exits 1 when any pair regressed.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	bench := fs.String("benchmark", "BENCHMARK.json", "benchmark declaration holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-benchmark BENCHMARK.json] A.jsonl B.jsonl")
		return 2
	}
	var decl benchmarkFile
	b, err := os.ReadFile(*bench)
	if err == nil {
		err = json.Unmarshal(b, &decl)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	a, err := readRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	bb, err := readRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	names := make([]string, 0, len(a))
	for w := range a {
		if _, ok := bb[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "no workload has untraced runs in both files")
		return 1
	}
	regressed := false
	fmt.Printf("%-15s %-14s %4s %28s %28s %8s %6s  %s\n",
		"workload", "metric", "runs", "A median [Q1, Q3]", "B median [Q1, Q3]", "change", "bound", "verdict")
	for _, w := range names {
		for _, d := range decl.EndToEnd {
			va, vb := values(a[w], d.Name), values(bb[w], d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(va, vb, d)
			regressed = regressed || v == "regressed"
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			fmt.Printf("%-15s %-14s %2d/%-2d %28s %28s %+7.1f%% %5.0f%%  %s\n",
				w, d.Name, len(va), len(vb),
				fmt.Sprintf("%.4g [%.4g, %.4g]", a2, a1, a3),
				fmt.Sprintf("%.4g [%.4g, %.4g]", b2, b1, b3),
				100*change(a2, b2), 100*d.Bound, v)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

// minPairs is the fewest run pairs a gain may be claimed on.
const minPairs = 10

// verdict classifies one (metric, workload) pair by the rules of the
// choosing-metrics guide: improved needs at least minPairs run pairs, B to
// win at least nine tenths of them and the medians to differ by more than
// A's own interquartile distance; a median worse by more than the bound is
// a regression; a spread wider than the bound leaves the pair unresolved
// unless every run of B reads better than every run of A.
func verdict(a, b []float64, d metricDef) string {
	lower := d.Better == "lower"
	better := func(x, y float64) bool { // x reads better than y
		if lower {
			return x < y
		}
		return x > y
	}
	pairs, wins := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	a1, a2, a3 := quartiles(a)
	_, b2, _ := quartiles(b)
	if pairs >= minPairs && float64(wins) >= 0.9*float64(pairs) && math.Abs(b2-a2) > a3-a1 {
		return "improved"
	}
	worse := change(a2, b2)
	if !lower {
		worse = -worse
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case max(iqrRatio(a), iqrRatio(b)) > d.Bound && !allBetter:
		return "unresolved"
	case worse > d.Bound:
		return "regressed"
	}
	return "unchanged"
}

// change is (b−a)/|a|, or 0 when a is 0.
func change(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / math.Abs(a)
}

// readRecords loads the untraced runs of an --out file, by workload.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace == 0 {
			out[rec.Workload] = append(out[rec.Workload], rec)
		}
	}
	return out, sc.Err()
}

func values(recs []record, name string) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := r.Result.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}
