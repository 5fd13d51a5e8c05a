// hhbench regenerates the paper's evaluation artifact (Table 1) as
// measurements: for each problem row it sweeps the governing parameter,
// measures the solvers' space in the paper's bit-accounting model,
// compares against the closed-form bounds and the prior-art baselines
// (Misra-Gries, Space-Saving, Count-Min, CountSketch, Lossy Counting and
// Sticky Sampling, imported from internal/ as benchmark fixtures), and
// reports decision quality against exact counts. The paper's solvers are
// built through the l1hh front door, l1hh.New.
//
// Usage:
//
//	go run ./cmd/hhbench -exp e1a     # row 1, space scaling vs ε
//	go run ./cmd/hhbench -exp e1b     # row 1, decision quality
//	go run ./cmd/hhbench -exp e2      # row 2, ε-Maximum
//	go run ./cmd/hhbench -exp e3      # row 3, ε-Minimum
//	go run ./cmd/hhbench -exp a4      # baseline field comparison
//	go run ./cmd/hhbench -exp all     # everything
//
//	go run ./cmd/hhbench -exp vote    # rows 4–5 via the problem front
//	                                  # door: ε-Borda and ε-maximin bits
//	                                  # (and their ratio to the closed-form
//	                                  # bound), throughput and winner
//	                                  # quality
//
//	go run ./cmd/hhbench -exp pool    # multi-tenant pool churn: insert
//	                                  # throughput under budget-forced
//	                                  # spill/revive cycles
//
//	go run ./cmd/hhbench -exp ingest -out BENCH_ingest.json
//	                                  # machine-readable per-item insert
//	                                  # cost snapshot (ns, allocs, bytes)
//
//	go run ./cmd/hhbench -check BENCH_ingest.json -tolerance 0.15
//	                                  # re-measure and fail (exit 1) on a
//	                                  # >15% ns/item regression or any
//	                                  # allocation on the ingest path;
//	                                  # warns instead when the snapshot's
//	                                  # go version / GOMAXPROCS don't
//	                                  # match this runner
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	l1hh "repro"
	"repro/internal/cms"
	"repro/internal/countsketch"
	"repro/internal/exact"
	"repro/internal/lossy"
	"repro/internal/mg"
	"repro/internal/rng"
	"repro/internal/spacesaving"
	"repro/internal/stats"
)

var (
	expFlag   = flag.String("exp", "all", "experiment: e1a, e1b, e2, e3, a4, vote, ingest, pool, or all")
	seedFlag  = flag.Uint64("seed", 1, "base RNG seed")
	mFlag     = flag.Int("m", 1_000_000, "stream length")
	outFlag   = flag.String("out", "", "with -exp ingest: write the JSON snapshot here instead of stdout")
	checkFlag = flag.String("check", "", "bench regression gate: re-measure the ingest hot paths and compare against this committed snapshot (exit 1 on regression)")
	tolFlag   = flag.Float64("tolerance", 0.15, "with -check: maximum allowed ns/item increase over the snapshot (0.15 = +15%)")
)

func main() {
	flag.Parse()
	if *checkFlag != "" {
		expCheck(*checkFlag, *tolFlag)
		return
	}
	switch *expFlag {
	case "e1a":
		expE1a()
	case "e1b":
		expE1b()
	case "e2":
		expE2()
	case "e3":
		expE3()
	case "a4":
		expA4()
	case "vote":
		expVote()
	case "ingest":
		expIngest(*outFlag)
	case "pool":
		expPool()
	case "all":
		expE1a()
		expE1b()
		expE2()
		expE3()
		expA4()
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *expFlag)
		os.Exit(2)
	}
}

// workload builds the standard planted stream: two ϕ-heavy items, two
// items below ϕ−ε, uniform noise elsewhere.
func workload(seed uint64, m int, phi, eps float64) []uint64 {
	w := []float64{phi * 1.5, phi * 1.1, (phi - eps) * 0.6, (phi - eps) * 0.4}
	return l1hh.GeneratePlantedStream(seed, m, w, 1000, 1<<30, l1hh.OrderShuffled)
}

// sketch is what the experiments feed: single-item insertion plus space
// under the paper's accounting (DESIGN.md §4). The prior-art baselines
// satisfy it directly; engines built by l1hh.New through hhSketch.
type sketch interface {
	Insert(x uint64)
	ModelBits() int64
}

// hhSketch adapts a front-door engine to sketch; an insert error (none
// is expected on an in-universe stream) aborts the run.
type hhSketch struct{ l1hh.HeavyHitters }

func (s hhSketch) Insert(x uint64) { must(s.HeavyHitters.Insert(x)) }

// newEngine builds an engine through the front door for opts; a
// construction error aborts the run.
func newEngine(opts ...l1hh.Option) hhSketch {
	hh, err := l1hh.New(opts...)
	must(err)
	return hhSketch{hh}
}

// newList builds a known-length (ε,ϕ)-heavy hitters engine over a
// universe of n ids with δ = 0.1, the Table 1 row 1 configuration.
func newList(algo l1hh.Algorithm, eps, phi float64, m int, n, seed uint64) hhSketch {
	return newEngine(l1hh.WithEps(eps), l1hh.WithPhi(phi), l1hh.WithDelta(0.1),
		l1hh.WithStreamLength(uint64(m)), l1hh.WithUniverse(n),
		l1hh.WithAlgorithm(algo), l1hh.WithSeed(seed))
}

// newExtremes builds a known-length ε-Maximum or ε-Minimum engine over a
// universe of n ids with δ = 0.1.
func newExtremes(problem l1hh.Problem, eps float64, m int, n, seed uint64) hhSketch {
	return newEngine(l1hh.WithProblem(problem), l1hh.WithEps(eps), l1hh.WithDelta(0.1),
		l1hh.WithStreamLength(uint64(m)), l1hh.WithUniverse(n), l1hh.WithSeed(seed))
}

// feedPeak streams st into the sketch and returns the peak ModelBits,
// sampled every stride inserts. Peak — not end-of-stream — is the memory
// that must be provisioned: Misra-Gries style tables legitimately shrink
// under decrements, so their final state understates their footprint.
func feedPeak(s sketch, st []uint64, stride int) int64 {
	peak := s.ModelBits()
	for i, x := range st {
		s.Insert(x)
		if i%stride == stride-1 {
			if b := s.ModelBits(); b > peak {
				peak = b
			}
		}
	}
	if b := s.ModelBits(); b > peak {
		peak = b
	}
	return peak
}

// expE1a — Table 1 row 1, space scaling. The claim: the new algorithms'
// bits grow as ε⁻¹·log ϕ⁻¹ + ϕ⁻¹·log n + log log m while Misra-Gries
// grows as ε⁻¹(log n + log m); the ratio columns against each formula
// should stay flat across the ε sweep.
func expE1a() {
	fmt.Println("=== E1a: (ε,ϕ)-heavy hitters — peak bits vs ε (ϕ=0.1, n=2³²) ===")
	fmt.Println("bits·ε flat across the sweep ⇒ Θ(1/ε) growth; the a2 and a1 columns")
	fmt.Println("have n-independent slopes, MG's slope carries log n + log m (see E1a-n).")
	fmt.Println("eps      algo2(bits)  ·ε       algo1(bits)  ·ε       MG(bits)   ·ε")
	const phi = 0.1
	n := uint64(1) << 32
	m := *mFlag
	for _, eps := range []float64{0.05, 0.02, 0.01, 0.005} {
		st := workload(*seedFlag, m, phi, eps)
		a2 := newList(l1hh.AlgorithmOptimal, eps, phi, m, n, *seedFlag)
		a1 := newList(l1hh.AlgorithmSimple, eps, phi, m, n, *seedFlag)
		b2 := feedPeak(a2, st, 4096)
		b1 := feedPeak(a1, st, 4096)
		bm := feedPeak(mg.New(int(math.Ceil(1/eps)), n), st, 4096)
		fmt.Printf("%-7.3f  %11d  %7.0f  %11d  %7.0f  %9d  %6.0f\n",
			eps, b2, float64(b2)*eps, b1, float64(b1)*eps, bm, float64(bm)*eps)
	}
	fmt.Println()

	// E1a-n: hold ε fixed, grow the universe — only the id-bearing parts
	// (Algorithm 1/2's ϕ⁻¹ ids, MG's every entry) may grow.
	fmt.Println("--- E1a-n: peak bits vs universe size (ε=0.01, ϕ=0.1) ---")
	fmt.Println("log2(n)  algo2(bits)   algo1(bits)   MG(bits)")
	for _, lg := range []int{16, 32, 48, 62} {
		nn := uint64(1) << lg
		st := workloadN(*seedFlag, m, phi, 0.01, nn)
		a2 := newList(l1hh.AlgorithmOptimal, 0.01, phi, m, nn, *seedFlag)
		a1 := newList(l1hh.AlgorithmSimple, 0.01, phi, m, nn, *seedFlag)
		fmt.Printf("%-8d %12d  %12d  %9d\n", lg,
			feedPeak(a2, st, 4096), feedPeak(a1, st, 4096), feedPeak(mg.New(100, nn), st, 4096))
	}
	fmt.Println()
}

// workloadN is workload with noise spread over [1000, n/2).
func workloadN(seed uint64, m int, phi, eps float64, n uint64) []uint64 {
	w := []float64{phi * 1.5, phi * 1.1, (phi - eps) * 0.6, (phi - eps) * 0.4}
	hi := n / 2
	if hi <= 1000 {
		hi = 1001
	}
	return l1hh.GeneratePlantedStream(seed, m, w, 1000, hi, l1hh.OrderShuffled)
}

// expE1b — row 1 decision quality: recall on f ≥ ϕ·m, false positives at
// f ≤ (ϕ−ε)·m, worst estimate error.
func expE1b() {
	fmt.Println("=== E1b: (ε,ϕ)-heavy hitters — decision quality (ε=0.01, ϕ=0.05, m=10⁶) ===")
	const eps, phi = 0.01, 0.05
	m := *mFlag
	fmt.Println("engine   recall  false-pos  max|err|/m   bits")
	for _, algo := range []struct {
		name string
		a    l1hh.Algorithm
	}{{"algo2", l1hh.AlgorithmOptimal}, {"algo1", l1hh.AlgorithmSimple}} {
		recall, fpos, maxErr, bits := evalList(algo.a, eps, phi, m)
		fmt.Printf("%-7s  %6.3f  %9d  %10.5f  %6d\n", algo.name, recall, fpos, maxErr, bits)
	}
	fmt.Println()
}

func evalList(algo l1hh.Algorithm, eps, phi float64, m int) (recall float64, falsePos int, maxErr float64, bits int64) {
	st := workload(*seedFlag+7, m, phi, eps)
	ex := exact.New()
	hh := newList(algo, eps, phi, m, 1<<32, *seedFlag+7)
	for _, x := range st {
		hh.Insert(x)
		ex.Insert(x)
	}
	rep := hh.Report()
	got := map[uint64]float64{}
	for _, r := range rep {
		got[r.Item] = r.F
	}
	heavy := ex.HeavyHitters(uint64(math.Ceil(phi * float64(m))))
	found := 0
	for _, x := range heavy {
		if _, ok := got[x]; ok {
			found++
		}
	}
	recall = 1
	if len(heavy) > 0 {
		recall = float64(found) / float64(len(heavy))
	}
	for x, f := range got {
		if float64(ex.Freq(x)) <= (phi-eps)*float64(m) {
			falsePos++
		}
		if e := math.Abs(f-float64(ex.Freq(x))) / float64(m); e > maxErr {
			maxErr = e
		}
	}
	return recall, falsePos, maxErr, hh.ModelBits()
}

// expE2 — Table 1 row 2: ε-Maximum space and ℓ∞ accuracy vs ε.
func expE2() {
	fmt.Println("=== E2: ε-Maximum — measured bits and ℓ∞ error vs ε (n=2³², m=10⁶) ===")
	fmt.Println("eps      bits      bits/bound   |maxerr|/m")
	n := uint64(1) << 32
	m := *mFlag
	for _, eps := range []float64{0.05, 0.02, 0.01, 0.005} {
		st := workload(*seedFlag+3, m, 0.2, eps)
		ex := exact.New()
		for _, x := range st {
			ex.Insert(x)
		}
		mx := newExtremes(l1hh.MaxFrequencyProblem, eps, m, n, *seedFlag+3)
		peak := feedPeak(mx, st, 4096)
		est, _, err := mx.HeavyHitters.(l1hh.Extremes).MaxItem()
		must(err)
		f := est.F
		_, trueMax, _ := ex.Max()
		bound := stats.MaxUpperBits(eps, n, uint64(m))
		fmt.Printf("%-7.3f  %8d  %10.1f  %10.5f\n",
			eps, peak, float64(peak)/bound,
			math.Abs(f-float64(trueMax))/float64(m))
	}
	fmt.Println()
}

// expE3 — Table 1 row 3: ε-Minimum space and accuracy vs ε over a small
// universe.
func expE3() {
	fmt.Println("=== E3: ε-Minimum — measured bits and error vs ε (n=64, m=10⁶) ===")
	fmt.Println("eps      bits     bits/bound   |minerr|/m")
	m := *mFlag
	const n = 64
	for _, eps := range []float64{0.05, 0.02, 0.01, 0.005} {
		mn := newExtremes(l1hh.MinFrequencyProblem, eps, m, n, *seedFlag+4)
		ex := exact.New()
		st := l1hh.Generate(l1hh.NewZipfStream(*seedFlag+5, n, 0.8), m)
		for _, x := range st {
			ex.Insert(x)
		}
		peak := feedPeak(mn, st, 4096)
		universe := make([]uint64, n)
		for i := range universe {
			universe[i] = uint64(i)
		}
		_, trueMin := ex.MinOver(universe)
		r, _, err := mn.HeavyHitters.(l1hh.Extremes).MinItem()
		must(err)
		bound := stats.MinUpperBits(eps, uint64(m))
		fmt.Printf("%-7.3f  %7d  %10.1f  %10.5f\n",
			eps, peak, float64(peak)/bound,
			math.Abs(r.F-float64(trueMin))/float64(m))
	}
	fmt.Println()
}

// expA4 — baseline field: all sketches on one Zipf stream; bits, worst
// heavy-item error, update throughput.
func expA4() {
	fmt.Println("=== A4: baseline field — Zipf(1.1), n=2²⁰, m=10⁶, ε=0.01, ϕ=0.05 ===")
	const eps, phi = 0.01, 0.05
	n := uint64(1) << 20
	m := *mFlag
	st := l1hh.Generate(l1hh.NewZipfStream(*seedFlag+9, n, 1.1), m)
	ex := exact.New()
	for _, x := range st {
		ex.Insert(x)
	}
	type row struct {
		name   string
		sketch sketch
		est    func(uint64) float64
	}
	a2 := newList(l1hh.AlgorithmOptimal, eps, phi, m, n, *seedFlag)
	a1 := newList(l1hh.AlgorithmSimple, eps, phi, m, n, *seedFlag)
	mgS := mg.New(int(1/eps), n)
	ssS := spacesaving.New(int(1/eps), n)
	cmS := cms.New(rng.New(*seedFlag), eps, 0.05)
	csS := countsketch.New(rng.New(*seedFlag), 5, uint64(2/eps))
	lcS := lossy.NewCounting(eps, n)
	stS := lossy.NewSticky(rng.New(*seedFlag), eps, phi, 0.05, n)
	rows := []row{
		{"algo2", a2, nil},
		{"algo1", a1, nil},
		{"misra-gries", mgS, func(x uint64) float64 { return float64(mgS.Estimate(x)) }},
		{"space-saving", ssS, func(x uint64) float64 { return float64(ssS.Estimate(x)) }},
		{"count-min", cmS, func(x uint64) float64 { return float64(cmS.Estimate(x)) }},
		{"countsketch", csS, func(x uint64) float64 { return float64(csS.Estimate(x)) }},
		{"lossy", lcS, func(x uint64) float64 { return float64(lcS.Estimate(x)) }},
		{"sticky", stS, func(x uint64) float64 { return float64(stS.Estimate(x)) }},
	}
	top := ex.TopK(10)
	fmt.Println("sketch        bits       ns/insert   max|err|/m (top-10 items)")
	for _, r := range rows {
		start := time.Now()
		for _, x := range st {
			r.sketch.Insert(x)
		}
		nsPer := float64(time.Since(start).Nanoseconds()) / float64(len(st))
		maxErr := math.NaN()
		if r.est != nil {
			maxErr = 0
			for _, x := range top {
				e := math.Abs(r.est(x)-float64(ex.Freq(x))) / float64(m)
				if e > maxErr {
					maxErr = e
				}
			}
		} else {
			// List solvers: evaluate their reported estimates.
			maxErr = 0
			for _, rep := range r.sketch.(hhSketch).Report() {
				e := math.Abs(rep.F-float64(ex.Freq(rep.Item))) / float64(m)
				if e > maxErr {
					maxErr = e
				}
			}
		}
		fmt.Printf("%-12s  %9d  %9.1f  %12.5f\n",
			r.name, r.sketch.ModelBits(), nsPer, maxErr)
	}
	fmt.Println()
}

// expVote — Table 1 rows 4–5 exercised through the problem front door:
// build ε-Borda and ε-maximin solvers with l1hh.New(WithProblem(...)),
// stream one Mallows-distributed election through each, and compare the
// sampled winner and scores against an exact tally. Errors are reported
// in each problem's own units — Borda scores live on a 0..m·n scale
// (Definition 7), maximin scores on 0..m (Definition 9) — so both error
// columns are comparable to ε.
func expVote() {
	const n = 16
	m := *mFlag
	fmt.Printf("=== VOTE: ε-Borda and ε-maximin — Mallows(q=0.7) election, n=%d candidates, m=%d ballots ===\n", n, m)
	center := make(l1hh.Ranking, n)
	for i := range center {
		center[i] = uint32(i)
	}
	ex := l1hh.NewVoteTally(n)
	gen := l1hh.NewMallows(*seedFlag+11, center, 0.7)
	for i := 0; i < m; i++ {
		ex.Add(gen.Next())
	}
	exBorda, exBordaScore := ex.BordaWinner()
	exMaximin, exMaximinScore := ex.MaximinWinner()
	fmt.Printf("exact: borda winner %d (score %d), maximin winner %d (score %d)\n",
		exBorda, exBordaScore, exMaximin, exMaximinScore)
	fmt.Println("problem  eps      bits      bits/bound   votes/s      winner  max|err| (score units)")
	for _, eps := range []float64{0.05, 0.02, 0.01} {
		for _, pr := range []struct {
			problem l1hh.Problem
			name    string
			scale   float64 // score-unit denominator: m·n for Borda, m for maximin
			exact   func() []uint64
			bound   func(eps float64, n, m uint64) float64 // closed-form upper bound in bits
		}{
			{l1hh.BordaProblem, "borda", float64(m) * n, ex.BordaScores, stats.BordaUpperBits},
			{l1hh.MaximinProblem, "maximin", float64(m), ex.MaximinScores, stats.MaximinUpperBits},
		} {
			hh, err := l1hh.New(
				l1hh.WithProblem(pr.problem),
				l1hh.WithCandidates(n),
				l1hh.WithEps(eps), l1hh.WithPhi(0.1), l1hh.WithDelta(0.1),
				l1hh.WithStreamLength(uint64(m)), l1hh.WithSeed(*seedFlag+11),
			)
			must(err)
			v := hh.(l1hh.Voter)
			g := l1hh.NewMallows(*seedFlag+11, center, 0.7)
			start := time.Now()
			for i := 0; i < m; i++ {
				must(v.Vote(g.Next()))
			}
			elapsed := time.Since(start).Seconds()
			winner, _ := v.Winner()
			maxErr := 0.0
			exScores := pr.exact()
			for c, est := range v.Scores() {
				if e := math.Abs(est-float64(exScores[c])) / pr.scale; e > maxErr {
					maxErr = e
				}
			}
			bits := hh.ModelBits()
			fmt.Printf("%-7s  %-7.3f  %8d  %10.3f  %11.0f  %6d  %10.5f\n",
				pr.name, eps, bits, float64(bits)/pr.bound(eps, n, uint64(m)),
				float64(m)/elapsed, winner, maxErr)
		}
	}
	fmt.Println()
}

// expPool measures multi-tenant pool churn: a fixed tenant population is
// touched round-robin — the access pattern most hostile to an LRU budget,
// since every touch beyond the resident set forces a spill and a revive.
// Rows sweep the resident fraction from "everything fits" (no budget) down
// to 1/16 of the population, so the throughput column isolates the cost of
// the spill/revive cycle itself.
func expPool() {
	const tenants = 256
	m := *mFlag
	fmt.Printf("=== POOL: tenant churn — %d tenants round-robin, %d items total (algo1, ε=0.02, ϕ=0.1) ===\n", tenants, m)
	defaults := []l1hh.Option{
		l1hh.WithEps(0.02), l1hh.WithPhi(0.1),
		l1hh.WithStreamLength(uint64(m)), l1hh.WithUniverse(1 << 30),
		l1hh.WithAlgorithm(l1hh.AlgorithmSimple), l1hh.WithSeed(*seedFlag),
	}
	batch := make([]uint64, 256)
	for i := range batch {
		batch[i] = uint64(i % 97)
	}
	// Probe one warmed tenant's footprint to convert "resident tenants"
	// into a bit budget.
	probe, err := l1hh.NewPool(l1hh.WithTenantDefaults(defaults...))
	must(err)
	must(probe.InsertBatch("probe", batch))
	var perTenantBits int64
	must(probe.View("probe", func(hh l1hh.HeavyHitters) error {
		perTenantBits = hh.ModelBits()
		return nil
	}))
	must(probe.Close())

	names := make([]string, tenants)
	for i := range names {
		names[i] = fmt.Sprintf("t%03d", i)
	}
	fmt.Println("resident  items/s       evictions  revives   spilled_KiB")
	for _, resident := range []int{tenants, tenants / 4, tenants / 16} {
		popts := []l1hh.PoolOption{l1hh.WithTenantDefaults(defaults...)}
		if resident < tenants {
			popts = append(popts, l1hh.WithPoolBudget(int64(resident)*perTenantBits))
		}
		p, err := l1hh.NewPool(popts...)
		must(err)
		rounds := m / len(batch)
		start := time.Now()
		for i := 0; i < rounds; i++ {
			must(p.InsertBatch(names[i%tenants], batch))
		}
		elapsed := time.Since(start).Seconds()
		st := p.Stats()
		fmt.Printf("%-8d  %12.0f  %9d  %7d  %11.1f\n",
			resident, float64(rounds*len(batch))/elapsed,
			st.Evictions, st.Revives, float64(st.SpilledBytes)/1024)
		must(p.Close())
	}
	fmt.Println()
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
