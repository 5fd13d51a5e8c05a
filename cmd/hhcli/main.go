// hhcli finds the heavy hitters of a stream read from a file or stdin,
// one item per whitespace-separated token. Numeric tokens are used as ids
// directly; anything else is hashed (FNV-1a) into the universe, with the
// original spelling remembered for the report.
//
// It is built on the unified l1hh front door: flags become l1hh.New
// options, so the same binary runs the serial solver, the concurrent
// sharded engine (-shards), and sliding windows (-window /
// -window-duration) — the report then covers only the most recent
// traffic, and the summary line says how much the window actually
// covers versus what was requested and how much mass aged out (with
// -shards, skewed traffic can leave per-shard count windows covering
// less than the requested W; a warning fires below 90% coverage —
// DESIGN.md §8).
//
// Usage:
//
//	hhcli -eps 0.01 -phi 0.05 < access.log
//	hhcli -eps 0.001 -phi 0.01 -algo simple data.txt
//	hhcli -eps 0.02 -phi 0.1 -window 100000 data.txt       # last 100k tokens
//	hhcli -eps 0.01 -phi 0.05 -m 10000000 -shards 8 big.log
//
// The stream length is not known in advance, so the unknown-length solver
// (Theorem 7) runs unless -m is given (count windows need no -m; time
// windows use -m as the expected items per window).
//
// Related problems (-problem, DESIGN.md §14): borda and maximin
// aggregate rankings instead of items — each input line is one ballot,
// candidate ids most preferred first, separated by spaces or commas —
// and print the winner with every candidate's score estimate; minfreq
// and maxfreq read items as usual and print the frequency extreme with
// its ε·m error bar:
//
//	hhcli -problem borda -candidates 5 -eps 0.01 -phi 0.1 ballots.txt
//	hhcli -problem minfreq -eps 0.01 -universe 100 -m 100000 data.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	l1hh "repro"
	"repro/internal/obs"
	"repro/internal/stream"
)

var (
	epsFlag        = flag.Float64("eps", 0.01, "additive error ε")
	phiFlag        = flag.Float64("phi", 0.05, "heaviness threshold ϕ")
	deltaFlag      = flag.Float64("delta", 0.05, "failure probability δ")
	mFlag          = flag.Uint64("m", 0, "stream length if known (0 = unknown; with -window-duration: expected items per window)")
	algoFlag       = flag.String("algo", "optimal", "engine: optimal or simple (known m only)")
	seedFlag       = flag.Uint64("seed", 1, "RNG seed")
	shardsFlag     = flag.Int("shards", -1, "hash-partition the stream across N concurrent solver shards (-1 = serial, 0 = GOMAXPROCS)")
	windowFlag     = flag.Uint64("window", 0, "count-based sliding window: report the heavy hitters of (at least) the last N tokens (0 = whole stream)")
	windowDurFlag  = flag.Duration("window-duration", 0, "time-based sliding window over arrival time; -m becomes the expected items per window")
	windowBktFlag  = flag.Int("window-buckets", 0, "window epoch granularity (0 = default 8)")
	timingsFlag    = flag.Bool("timings", false, "print a stage-latency summary to stderr after the report (with -shards: per-stage histograms)")
	universeFlag   = flag.Uint64("universe", 1<<62, "universe size; ids in [0, universe) — matters for -problem minfreq, where the answer covers the whole universe")
	problemFlag    = flag.String("problem", "hh", "problem to solve: hh (heavy hitters), borda, maximin (ballots, one per line), minfreq, maxfreq (DESIGN.md §14)")
	candidatesFlag = flag.Int("candidates", 0, "number of candidates for -problem borda|maximin; ballots are permutations of [0, candidates)")
)

// batchSize is how many ids hhcli hands to InsertBatch at once when a
// sharded engine is configured; serial engines insert one by one.
const batchSize = 8192

// parseProblem maps -problem onto the front door's Problem constants.
func parseProblem(name string) (l1hh.Problem, error) {
	switch name {
	case "hh", "heavy-hitters":
		return l1hh.HeavyHittersProblem, nil
	case "borda":
		return l1hh.BordaProblem, nil
	case "maximin":
		return l1hh.MaximinProblem, nil
	case "minfreq", "min-frequency":
		return l1hh.MinFrequencyProblem, nil
	case "maxfreq", "max-frequency":
		return l1hh.MaxFrequencyProblem, nil
	}
	return 0, fmt.Errorf("unknown -problem %q (want hh, borda, maximin, minfreq or maxfreq)", name)
}

// buildProblemOptions is buildOptions for a non-default -problem:
// exactly the flags in that problem's vocabulary. Strays the user set
// explicitly are refused by the front door's validation (the option is
// simply never forwarded here, so e.g. -shards with -problem borda
// fails only if passed — which validateStrays below turns into a flag
// error first).
func buildProblemOptions(problem l1hh.Problem) ([]l1hh.Option, error) {
	if err := validateStrays(problem); err != nil {
		return nil, err
	}
	opts := []l1hh.Option{
		l1hh.WithProblem(problem),
		l1hh.WithEps(*epsFlag),
		l1hh.WithDelta(*deltaFlag),
		l1hh.WithSeed(*seedFlag),
	}
	switch problem {
	case l1hh.BordaProblem, l1hh.MaximinProblem:
		if *candidatesFlag <= 0 {
			return nil, fmt.Errorf("-problem %s requires -candidates (ballots are permutations of [0, candidates))", problem)
		}
		opts = append(opts, l1hh.WithPhi(*phiFlag), l1hh.WithCandidates(*candidatesFlag))
	default:
		opts = append(opts, l1hh.WithUniverse(*universeFlag))
	}
	if *mFlag > 0 {
		opts = append(opts, l1hh.WithStreamLength(*mFlag))
	}
	return opts, nil
}

// validateStrays refuses explicitly-set flags outside the problem's
// vocabulary, so the error names the flag instead of surfacing as a
// front-door option rejection.
func validateStrays(problem l1hh.Problem) error {
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range []string{"shards", "algo", "window", "window-duration", "window-buckets", "timings"} {
		if set[name] {
			return fmt.Errorf("-%s does not apply to -problem %s: the problem engines are serial, unsharded and unwindowed", name, problem)
		}
	}
	voting := problem == l1hh.BordaProblem || problem == l1hh.MaximinProblem
	if voting && set["universe"] {
		return fmt.Errorf("-universe does not apply to -problem %s: ballots range over the candidates", problem)
	}
	if !voting && set["phi"] {
		return fmt.Errorf("-phi does not apply to -problem %s: the extremes problems have no heaviness threshold", problem)
	}
	if !voting && set["candidates"] {
		return fmt.Errorf("-candidates does not apply to -problem %s", problem)
	}
	return nil
}

// buildOptions translates the flags into the l1hh.New option set.
func buildOptions() ([]l1hh.Option, error) {
	algo := l1hh.AlgorithmOptimal
	switch *algoFlag {
	case "optimal":
	case "simple":
		algo = l1hh.AlgorithmSimple
	default:
		return nil, fmt.Errorf("unknown -algo %q", *algoFlag)
	}
	opts := []l1hh.Option{
		l1hh.WithEps(*epsFlag),
		l1hh.WithPhi(*phiFlag),
		l1hh.WithDelta(*deltaFlag),
		l1hh.WithUniverse(*universeFlag),
		l1hh.WithAlgorithm(algo),
		l1hh.WithSeed(*seedFlag),
	}
	if *mFlag > 0 {
		opts = append(opts, l1hh.WithStreamLength(*mFlag))
	}
	if *shardsFlag >= 0 {
		opts = append(opts, l1hh.WithShards(*shardsFlag))
	}
	switch {
	case *windowFlag > 0 && *windowDurFlag > 0:
		return nil, fmt.Errorf("-window and -window-duration are mutually exclusive")
	case *windowFlag > 0:
		opts = append(opts, l1hh.WithCountWindow(*windowFlag, *windowBktFlag))
	case *windowDurFlag > 0:
		opts = append(opts, l1hh.WithTimeWindow(*windowDurFlag, *windowBktFlag))
	}
	return opts, nil
}

func main() {
	flag.Parse()

	problem, err := parseProblem(*problemFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if problem != l1hh.HeavyHittersProblem {
		opts, err := buildProblemOptions(problem)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		hh, err := l1hh.New(opts...)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		in := os.Stdin
		if flag.NArg() > 0 {
			f, err := os.Open(flag.Arg(0))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			defer f.Close()
			in = f
		}
		if err := runProblem(hh, in); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		hh.Close()
		return
	}
	if *candidatesFlag != 0 {
		fmt.Fprintln(os.Stderr, "-candidates only applies to the voting problems (-problem borda|maximin)")
		os.Exit(2)
	}

	opts, err := buildOptions()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var clk *ingestClocks
	if *timingsFlag {
		clk = newIngestClocks()
		if *shardsFlag >= 0 {
			// Serial engines have no enqueue/apply stages; the observer
			// option would be (rightly) rejected without shards.
			opts = append(opts, l1hh.WithIngestObserver(clk.timings()))
		}
	}
	hh, err := l1hh.New(opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	in := os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	}

	rd := stream.NewReader(in, 1<<20)
	ingestStart := time.Now()
	if err := feed(hh, rd); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if clk != nil {
		clk.ingestWall = time.Since(ingestStart)
	}
	if err := rd.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	summary := fmt.Sprintf("# %d items, sketch %d bits, ε=%.4g ϕ=%.4g",
		rd.Count(), hh.ModelBits(), hh.Eps(), hh.Phi())
	if win, ok := hh.(l1hh.Windower); ok {
		st := win.WindowStats()
		w, _, _ := win.Window()
		summary += windowSummary(st, w)
		if warn := coverageWarning(st, w); warn != "" {
			fmt.Fprintln(os.Stderr, warn)
		}
	}
	fmt.Println(summary)
	reportStart := time.Now()
	rep := hh.Report()
	if clk != nil {
		clk.reportWall = time.Since(reportStart)
	}
	for _, r := range rep {
		label := rd.Name(r.Item)
		if label == "" {
			label = strconv.FormatUint(r.Item, 10)
		}
		fmt.Printf("%-30s %12.0f\n", label, r.F)
	}
	if clk != nil {
		fmt.Fprint(os.Stderr, clk.summary(rd.Count()))
	}
	hh.Close()
}

// runProblem dispatches a non-default -problem run on the capability
// the engine asserts: Voter reads ballots, Extremes reads items.
func runProblem(hh l1hh.HeavyHitters, in io.Reader) error {
	if v, ok := hh.(l1hh.Voter); ok {
		return runVoting(v, hh, in)
	}
	return runExtremes(hh, in)
}

// runVoting reads one ballot per line — candidate ids most preferred
// first, separated by spaces or commas — and prints the winner plus
// every candidate's score estimate. Candidates in the (ε,ϕ)-List answer
// at the engine's threshold are starred (known stream length only).
func runVoting(v l1hh.Voter, hh l1hh.HeavyHitters, in io.Reader) error {
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		fields := strings.FieldsFunc(sc.Text(), func(r rune) bool {
			return r == ',' || r == ' ' || r == '\t'
		})
		if len(fields) == 0 {
			continue
		}
		rk := make(l1hh.Ranking, len(fields))
		for i, f := range fields {
			id, err := strconv.ParseUint(f, 10, 32)
			if err != nil {
				return fmt.Errorf("line %d: %v", lineno, err)
			}
			rk[i] = uint32(id)
		}
		if err := v.Vote(rk); err != nil {
			return fmt.Errorf("line %d: %v", lineno, err)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	winner, score := v.Winner()
	fmt.Printf("# %d ballots over %d candidates, sketch %d bits, ε=%.4g ϕ=%.4g\n",
		hh.Len(), v.Candidates(), hh.ModelBits(), hh.Eps(), hh.Phi())
	fmt.Printf("winner %d  score≈%.0f\n", winner, score)
	listed := map[int]bool{}
	if list := v.List(hh.Phi()); list != nil {
		for _, sc := range list {
			listed[sc.Candidate] = true
		}
	}
	for c, s := range v.Scores() {
		mark := " "
		if listed[c] {
			mark = "*"
		}
		fmt.Printf("%s %-10d %12.0f\n", mark, c, s)
	}
	return nil
}

// runExtremes streams items the same way the heavy hitters path does
// and prints the one frequency extreme the engine tracks with its ε·m
// error bar.
func runExtremes(hh l1hh.HeavyHitters, in io.Reader) error {
	rd := stream.NewReader(in, 1<<20)
	for {
		id, ok := rd.Next()
		if !ok {
			break
		}
		if err := hh.Insert(id); err != nil {
			return err
		}
	}
	if err := rd.Err(); err != nil {
		return err
	}
	ex := hh.(l1hh.Extremes)
	kind := "min-frequency"
	est, bound, err := ex.MinItem()
	if err == l1hh.ErrWrongExtreme {
		kind = "max-frequency"
		est, bound, err = ex.MaxItem()
	}
	if err != nil {
		return err
	}
	fmt.Printf("# %d items, sketch %d bits, ε=%.4g\n", hh.Len(), hh.ModelBits(), hh.Eps())
	label := rd.Name(est.Item)
	if label == "" {
		label = strconv.FormatUint(est.Item, 10)
	}
	fmt.Printf("%-13s %-30s %12.0f ±%.3g\n", kind, label, est.F, bound)
	return nil
}

// windowSummary renders the window clause of the summary line. Covered
// can land well under the requested W: per-shard count windows slide on
// per-shard arrivals, so skewed traffic shrinks the busiest shard's
// suffix (DESIGN.md §8). Both numbers are printed so the summary never
// overstates coverage.
func windowSummary(st l1hh.WindowStats, w uint64) string {
	if w > 0 {
		return fmt.Sprintf(", window covers %d of requested %d (%d aged out)",
			st.Covered, w, st.Retired)
	}
	return fmt.Sprintf(", window covers %d (%d aged out)", st.Covered, st.Retired)
}

// coverageWarning returns the below-90%-coverage warning, or "" when
// coverage is healthy. It only fires once the stream has filled the
// requested window: before that, low coverage just means a short
// stream, not skew.
func coverageWarning(st l1hh.WindowStats, w uint64) string {
	if w == 0 || st.Total < w || st.Covered >= w-w/10 {
		return ""
	}
	return fmt.Sprintf(
		"hhcli: window coverage %d is below 90%% of the requested %d (per-shard coverage %d–%d); skewed traffic shrinks per-shard count windows — see DESIGN.md §8",
		st.Covered, w, st.CoveredMin, st.CoveredMax)
}

// ingestClocks collects the -timings data: wall clocks for the ingest
// and report phases, and (with -shards) the engine's per-stage
// histograms fed through l1hh.WithIngestObserver.
type ingestClocks struct {
	enqueueWait *obs.Histogram
	batchApply  *obs.Histogram
	ingestWall  time.Duration
	reportWall  time.Duration
}

func newIngestClocks() *ingestClocks {
	reg := obs.NewRegistry()
	return &ingestClocks{
		enqueueWait: reg.Histogram("enqueue_wait", "", nil, obs.DurationBuckets),
		batchApply:  reg.Histogram("batch_apply", "", nil, obs.DurationBuckets),
	}
}

func (c *ingestClocks) timings() l1hh.IngestTimings {
	return l1hh.IngestTimings{
		EnqueueWait: c.enqueueWait.ObserveDuration,
		BatchApply:  c.batchApply.ObserveDuration,
	}
}

// summary renders the stderr timing report. Stage quantiles are bucket
// upper bounds (the histograms trade exactness for a lock-free hot
// path), so they are labeled ≤.
func (c *ingestClocks) summary(items uint64) string {
	rate := ""
	if s := c.ingestWall.Seconds(); s > 0 {
		rate = fmt.Sprintf(" (%.3g items/s)", float64(items)/s)
	}
	out := fmt.Sprintf("# timings: ingest %s%s, report %s\n",
		c.ingestWall.Round(time.Microsecond), rate, c.reportWall.Round(time.Microsecond))
	for _, st := range []struct {
		name string
		h    *obs.Histogram
	}{{"enqueue_wait", c.enqueueWait}, {"batch_apply", c.batchApply}} {
		n := st.h.Count()
		if n == 0 {
			continue
		}
		q := func(p float64) time.Duration {
			return time.Duration(st.h.Quantile(p) * float64(time.Second)).Round(time.Nanosecond)
		}
		out += fmt.Sprintf("# timings: %-12s n=%-8d p50≤%-10s p99≤%-10s max≤%s\n",
			st.name, n, q(0.5), q(0.99), q(1))
	}
	return out
}

// feed streams the reader's ids into the solver, batching when the
// engine ingests concurrently (the batch path is the sharded hot path;
// serial solvers take the plain Insert loop).
func feed(hh l1hh.HeavyHitters, rd *stream.Reader) error {
	if _, ok := hh.(l1hh.Sharder); !ok {
		for {
			id, ok := rd.Next()
			if !ok {
				return nil
			}
			if err := hh.Insert(id); err != nil {
				return err
			}
		}
	}
	batch := make([]l1hh.Item, 0, batchSize)
	for {
		id, ok := rd.Next()
		if !ok {
			break
		}
		batch = append(batch, id)
		if len(batch) == cap(batch) {
			if err := hh.InsertBatch(batch); err != nil {
				return err
			}
			batch = batch[:0]
		}
	}
	if err := hh.InsertBatch(batch); err != nil {
		return err
	}
	// A sharded report is a barrier, but flush explicitly so rd.Count()
	// and the report are taken against the same drained state.
	if f, ok := hh.(l1hh.Flusher); ok {
		f.Flush()
	}
	return nil
}
