// Command l1hhbench is the repository's benchmark. It drives the public
// surfaces — l1hh.New engines in process, and the cmd/hhd daemon over
// loopback through pkg/hhclient and raw HTTP — on five named workloads,
// checks every final answer against exact counts, and prints one JSON
// result line: end-to-end metrics, or with --trace 1 per-layer metrics
// taken from spans around each call into a layer. README.md holds the
// workload rationale and the metric dictionary.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload embed-skip --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload all --seed 1 --out results.jsonl
//	bash bench/run.sh compare before.jsonl after.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

const (
	// engineSeed seeds every engine the benchmark builds, in process and in
	// hhd, so only --seed varies the input.
	engineSeed = 7
	// scheduleSeed fixes the daemon workloads' schedule — when each request
	// is due and which tenant it goes to — so that --seed varies only the
	// ids sent. Tenant schedules drawn per seed moved the revive count, and
	// the latencies with it, by ±15% between seeds.
	scheduleSeed = 0xD1B54A32D192ED03
)

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names, units and directions, and adds the bounds the compare mode
// applies; the smoke test keeps the two lists equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the library or the daemon sees.
// Every workload reports each of them from an untraced run.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "items_per_s", Unit: "items/s", Better: "higher"},
	{Name: "model_bits", Unit: "bits", Better: "lower"},
	{Name: "memory_mib", Unit: "MiB", Better: "lower"},
}

// perLayer are the metrics of single layers, from the traced run. A
// layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{Name: "ingest_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "report_ms_mean", Unit: "ms", Better: "lower"},
	{Name: "batch_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "batch_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "ack_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "ack_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "report_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "report_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "core.serial_ns_per_item", Unit: "ns", Better: "lower"},
	{Name: "shard.batch_apply.sum_s", Unit: "s", Better: "lower"},
	{Name: "shard.batch_apply.p50_us", Unit: "us", Better: "lower"},
	{Name: "shard.busy_ratio", Unit: "ratio", Better: "lower"},
	{Name: "shard.enqueue_wait.sum_s", Unit: "s", Better: "lower"},
	{Name: "shard.enqueue_wait.p99_us", Unit: "us", Better: "lower"},
	{Name: "shard.enqueue_wait.nonzero_ratio", Unit: "ratio", Better: "lower"},
	{Name: "l1hh.insert_batch.busy_s", Unit: "s", Better: "lower"},
	{Name: "l1hh.insert_batch.self_s", Unit: "s", Better: "lower"},
	{Name: "l1hh.insert_batch.calls", Unit: "count", Better: "lower"},
	{Name: "l1hh.flush.ms_p50", Unit: "ms", Better: "lower"},
	{Name: "l1hh.report.calls", Unit: "count", Better: "higher"},
	{Name: "l1hh.report.items_mean", Unit: "items", Better: "lower"},
	{Name: "window.buckets", Unit: "count", Better: "lower"},
	{Name: "window.covered_items", Unit: "items", Better: "lower"},
	{Name: "window.share_skew", Unit: "ratio", Better: "lower"},
	{Name: "l1hh.checkpoint_encode.ms", Unit: "ms", Better: "lower"},
	{Name: "l1hh.checkpoint_encode.bytes", Unit: "bytes", Better: "lower"},
	{Name: "l1hh.checkpoint_decode.ms", Unit: "ms", Better: "lower"},
	{Name: "hhd.checkpoint_encode.mean_ms", Unit: "ms", Better: "lower"},
	{Name: "hhd.checkpoint.count", Unit: "count", Better: "higher"},
	{Name: "hhd.checkpoint.last_bytes", Unit: "bytes", Better: "lower"},
	{Name: "hhclient.add_batch.busy_s", Unit: "s", Better: "lower"},
	{Name: "hhclient.add_batch.refusals", Unit: "count", Better: "lower"},
	{Name: "hhclient.post.count", Unit: "count", Better: "lower"},
	{Name: "hhclient.post.ms_p50", Unit: "ms", Better: "lower"},
	{Name: "hhclient.post.ms_p99", Unit: "ms", Better: "lower"},
	{Name: "hhclient.post.items_mean", Unit: "items", Better: "higher"},
	{Name: "hhclient.retried_items", Unit: "count", Better: "lower"},
	{Name: "hhclient.dropped", Unit: "count", Better: "lower"},
	{Name: "hhd.ingest_decode.mean_us", Unit: "us", Better: "lower"},
	{Name: "hhd.ingest_decode.ns_per_item", Unit: "ns", Better: "lower"},
	{Name: "hhd.enqueue_wait.sum_s", Unit: "s", Better: "lower"},
	{Name: "hhd.batch_apply.sum_s", Unit: "s", Better: "lower"},
	{Name: "hhd.report.mean_ms", Unit: "ms", Better: "lower"},
	{Name: "hhd.cpu_ns_per_item", Unit: "ns", Better: "lower"},
	{Name: "hhd.rss_peak_mib", Unit: "MiB", Better: "lower"},
	{Name: "hhd.ingest_shed_total", Unit: "count", Better: "lower"},
	{Name: "pool.pool_revive.count", Unit: "count", Better: "lower"},
	{Name: "pool.pool_revive.mean_ms", Unit: "ms", Better: "lower"},
	{Name: "pool.pool_spill.count", Unit: "count", Better: "lower"},
	{Name: "pool.pool_spill.mean_ms", Unit: "ms", Better: "lower"},
	{Name: "pool.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "pool.spilled_bytes", Unit: "bytes", Better: "lower"},
	{Name: "pool.tenants_live", Unit: "count", Better: "higher"},
	{Name: "bench.cpu_ns_per_item", Unit: "ns", Better: "lower"},
	{Name: "bench.gen_lag_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "bench.pass_iqr_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.trace_overhead", Unit: "ratio", Better: "lower"},
	{Name: "bench.max_err_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.yardstick_items_per_s", Unit: "items/s", Better: "higher"},
}

// workload is one named input set and the code that drives it; README.md
// and BENCHMARK.json say why each was chosen.
type workload struct {
	name string
	run  func(r *run) error
}

var workloads = []workload{
	{"embed-sampled", runEmbedSampled},
	{"embed-skip", runEmbedSkip},
	{"embed-window", runEmbedWindow},
	{"daemon-ingest", runDaemonIngest},
	{"daemon-tenants", runDaemonTenants},
}

// config is what every run of one invocation shares.
type config struct {
	seed uint64
	// seconds is the measuring budget of one workload run.
	seconds float64
	// maxPasses caps the fresh-engine passes of the in-process workloads
	// (0: as many as the budget allows).
	maxPasses int
	// root is the repository root, where cmd/hhd is built from.
	root string
	// hhd is the built daemon binary; buildHHD fills it on first use.
	hhd     string
	hhdOnce sync.Once
	hhdErr  error
	in      *input
	inOnce  sync.Once
}

// input returns the seed's stream, drawn once per invocation.
func (c *config) input() *input {
	c.inOnce.Do(func() { c.in = newInput(c.seed, bufItems) })
	return c.in
}

// run is one execution of a workload: its budget, its tracer (nil when
// untraced), its yardstick (nil unless the workload takes one), and what
// it measured.
type run struct {
	cfg     *config
	in      *input
	tr      *tracer
	yard    *yardstick
	seconds float64
	metrics map[string]float64

	attempted, failed atomic.Int64
	mu                sync.Mutex
	violations        []string
	maxErr            float64
}

// op counts one attempted operation and, when err is non-nil, one failure.
func (r *run) op(err error) {
	r.attempted.Add(1)
	if err != nil {
		r.fail("%v", err)
	}
}

// fail counts a failure that is not an error return: a non-2xx status,
// an open-loop refusal, or a correctness violation.
func (r *run) fail(format string, args ...any) {
	r.failed.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.violations) < 20 {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// check gates one final report; every violation counts as a failed
// operation.
func (r *run) check(what string, rep []estimate, truth []uint64, g guarantee) {
	worst, vs := checkReport(rep, truth, g)
	r.attempted.Add(1)
	r.mu.Lock()
	r.maxErr = max(r.maxErr, worst)
	r.mu.Unlock()
	for _, v := range vs {
		r.fail("%s: %s", what, v)
	}
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("l1hhbench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "measuring budget of one workload run")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run (and an untraced twin for the overhead)")
	traceDir := fs.String("trace-dir", ".bench_build/trace", "where --trace 1 writes <workload>.trace.json")
	out := fs.String("out", "", "append one {workload, seed, trace, result} line per workload to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "--trace must be 0 or 1")
		return 2
	}
	if !(*seconds > 0) {
		fmt.Fprintln(os.Stderr, "--seconds must be positive")
		return 2
	}
	var todo []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
		return 2
	}
	root, err := filepath.Abs(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	cfg := &config{seed: *seed, seconds: *seconds, root: root}
	code := 0
	for _, w := range todo {
		res, err := execute(cfg, w, *trace == 1, *traceDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
			return 1
		}
		if *out != "" {
			if err := appendRecord(*out, w.name, *seed, *trace, res); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println(string(line))
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// execute runs one workload. Untraced, it reports the end-to-end
// metrics. Traced, it runs an untraced twin on half the budget and the
// traced run on the other half, reports the per-layer metrics of the
// traced run plus the overhead between the two, and writes the trace.
func execute(cfg *config, w workload, traced bool, traceDir string) (result, error) {
	do := func(seconds float64, tr *tracer) (*run, error) {
		r := &run{cfg: cfg, in: cfg.input(), tr: tr, seconds: seconds, metrics: map[string]float64{}}
		if err := w.run(r); err != nil {
			return nil, err
		}
		r.scaleThroughput(w.name)
		if tr == nil {
			// Every untraced run, the traced run's twin included, measures
			// every end-to-end metric.
			for _, d := range endToEnd {
				if v, ok := r.metrics[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					return nil, fmt.Errorf("end-to-end metric %s measured as %v (present %v)", d.Name, v, ok)
				}
			}
		}
		return r, nil
	}
	var runs []*run
	defs := endToEnd
	if !traced {
		r, err := do(cfg.seconds, nil)
		if err != nil {
			return result{}, err
		}
		runs = append(runs, r)
	} else {
		defs = perLayer
		plain, err := do(cfg.seconds/2, nil)
		if err != nil {
			return result{}, err
		}
		r, err := do(cfg.seconds/2, newTracer())
		if err != nil {
			return result{}, err
		}
		if base := plain.metrics["items_per_s"]; base > 0 {
			r.set("bench.trace_overhead", r.metrics["items_per_s"]/base-1)
		}
		printLayers(os.Stderr, r.tr.layers())
		if err := r.tr.write(traceDir, w.name); err != nil {
			return result{}, fmt.Errorf("writing trace: %w", err)
		}
		runs = append(runs, plain, r)
	}
	last := runs[len(runs)-1]
	last.set("bench.max_err_ratio", last.maxErr)
	res := result{Correct: true, Metrics: map[string]valueUnit{}}
	for _, r := range runs {
		res.Attempted += r.attempted.Load()
		res.Failed += r.failed.Load()
		for _, v := range r.violations {
			fmt.Fprintf(os.Stderr, "%s: FAILED: %s\n", w.name, v)
			res.Correct = false
		}
	}
	for _, d := range defs {
		v := last.metrics[d.Name] // 0 for a layer the workload does not exercise
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = valueUnit{v, d.Unit}
	}
	printMetrics(w.name, res)
	return res, nil
}

// scaleThroughput converts the run's items_per_s to the yardstick's
// reference speed (yardstick.go), printing the unscaled value beside the
// factor.
func (r *run) scaleThroughput(name string) {
	if r.yard == nil {
		return // the daemon workloads' throughput stays as measured
	}
	scale := r.yard.scale()
	r.set("bench.yardstick_items_per_s", r.yard.speed())
	fmt.Fprintf(os.Stderr, "%s: yardstick %.4g items/s, scale %.4f; unscaled items_per_s=%.6g\n",
		name, r.yard.speed(), scale, r.metrics["items_per_s"])
	r.metrics["items_per_s"] /= scale
}

// printMetrics writes every metric by name with its unit to stderr.
func printMetrics(name string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%s: correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-34s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

// record is one line of an --out file, the input of the compare mode.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func appendRecord(path, name string, seed uint64, trace int, res result) error {
	line, err := json.Marshal(record{name, seed, trace, res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// arrivals yields jittered periodic due times: one per period, at a point
// of it drawn uniformly from scheduleSeed. Due times exactly one period
// apart locked the daemon reporters in phase with hhd's own periodic work
// — a 100 ms reporter beside 1 s checkpoints hit every tenth checkpoint
// in some runs and none in others — and moved mean latencies by up to 40%
// between runs; jittered ones meet such work at a rate that does not
// depend on the phase a run starts at, and keep the count of arrivals
// exact.
type arrivals struct {
	rnd    *rand.Rand
	start  time.Time
	period float64 // ns
	n      int
}

// newArrivals starts a schedule at start; stream tells apart the
// schedules of one run.
func newArrivals(start time.Time, period time.Duration, stream uint64) *arrivals {
	return &arrivals{rnd: rand.New(rand.NewPCG(scheduleSeed, stream)), start: start, period: float64(period)}
}

// due returns the next due time.
func (a *arrivals) due() time.Time {
	t := a.start.Add(time.Duration((float64(a.n) + a.rnd.Float64()) * a.period))
	a.n++
	return t
}

// sleepUntil sleeps until t; it returns at once when t has passed. It
// blocks the thread in nanosleep(2) rather than in a runtime timer,
// whose wakeups ride the network poller's millisecond timeouts and
// would make an open-loop generator run up to a millisecond late.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
}
