package l1hh

// One benchmark family per Table 1 row of the paper plus the ablations
// DESIGN.md §5 lists. Space is emitted as the custom metric "model-bits"
// (the paper's accounting) and, on the E2–E5 rows, as "bits/bound": the
// measured bits over the row's Table 1 closed form with constant 1
// (internal/stats), which stays flat across ε when the growth matches.
// Time is the usual ns/op. EXPERIMENTS.md records the paper-vs-measured
// comparison. The BenchmarkShardedInsert rows are the loops the
// BENCH_ingest.json ledger times (TestIngestLedger), so they build
// their engines through New; the other heavy hitters rows call the
// unexported builders behind New, so they time the engines without the
// front-door adapters, and the problem rows time the internal sketches
// New wraps.

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/commlower"
	"repro/internal/core"
	"repro/internal/mg"
	"repro/internal/minimum"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/voting"
)

// benchStream is a shared pre-generated workload (planted heavy hitters +
// noise) so benchmarks measure sketch work, not generation.
var benchStream = GeneratePlantedStream(1, 1<<20,
	[]float64{0.15, 0.11, 0.03}, 1000, 1<<30, OrderShuffled)

func reportBits(b *testing.B, s interface{ ModelBits() int64 }) {
	b.ReportMetric(float64(s.ModelBits()), "model-bits")
}

// benchPasses times b.N inserts read cyclically from a stream of n
// items, on a fresh engine for every pass, so no engine ingests more
// than the n items it declares and a row's sample rate and model bits
// do not follow b.N. newPass builds an engine declared at n items,
// outside the timer, and returns feed, which inserts the stream's first
// k items, and the engine's ModelBits. The row's model bits come from
// one more engine fed exactly one pass; benchPasses reports and returns
// them.
func benchPasses(b *testing.B, n int, newPass func() (feed func(k int), bits func() int64)) int64 {
	b.ResetTimer()
	for done := 0; done < b.N; done += n {
		b.StopTimer()
		feed, _ := newPass()
		b.StartTimer()
		feed(min(n, b.N-done))
	}
	b.StopTimer()
	feed, bits := newPass()
	feed(n)
	mb := bits()
	b.ReportMetric(float64(mb), "model-bits")
	return mb
}

// --- E1: Table 1 row 1 — (ε,ϕ)-heavy hitters ---

// oneIDStream repeats a single id: every Algorithm 2 sample lands in the
// same bucket of each repetition, so after the first few hundred samples
// every T2 cell it reads is escaped (DESIGN.md §2).
var oneIDStream = make([]Item, 1<<20)

// benchListInsert times Insert over xs, a 2²⁰-item stream read
// cyclically. The engine declares that length whatever b.N, so a row's
// sample rate, ns/op and model bits compare across runs and -benchtime
// settings.
func benchListInsert(b *testing.B, algo Algorithm, eps float64, xs []Item) {
	hh, err := buildSerial(config{
		Eps: eps, Phi: 0.1, Delta: 0.1,
		StreamLength: uint64(len(xs)),
		Universe:     1 << 32, Algorithm: algo, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hh.Insert(xs[i&(1<<20-1)])
	}
	b.StopTimer()
	reportBits(b, hh)
}

func BenchmarkE1aAlgo2Insert(b *testing.B) {
	for _, eps := range []float64{0.05, 0.01} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			benchListInsert(b, AlgorithmOptimal, eps, benchStream)
		})
	}
	b.Run("eps=0.01/one-id", func(b *testing.B) {
		benchListInsert(b, AlgorithmOptimal, 0.01, oneIDStream)
	})
}

func BenchmarkE1aAlgo1Insert(b *testing.B) {
	for _, eps := range []float64{0.05, 0.01} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			benchListInsert(b, AlgorithmSimple, eps, benchStream)
		})
	}
}

func BenchmarkE1aMisraGriesInsert(b *testing.B) {
	for _, eps := range []float64{0.05, 0.01} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			s := mg.New(int(1/eps), 1<<32)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Insert(benchStream[i&(1<<20-1)])
			}
			b.StopTimer()
			reportBits(b, s)
		})
	}
}

// BenchmarkE1cUpdateScaling checks the O(1) amortized update claim:
// with the stream length (hence sampling rate ℓ/m) varying over two
// orders of magnitude, per-item cost must *fall* toward the constant
// skip-sampler decrement, not grow.
func BenchmarkE1cUpdateScaling(b *testing.B) {
	for _, m := range []uint64{1 << 20, 1 << 24, 1 << 28} {
		b.Run(fmt.Sprintf("declared-m=%d", m), func(b *testing.B) {
			hh, err := buildSerial(config{
				Eps: 0.01, Phi: 0.1, Delta: 0.1,
				StreamLength: m, Universe: 1 << 32,
				Algorithm: AlgorithmOptimal, Seed: 3,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hh.Insert(benchStream[i&(1<<20-1)])
			}
		})
	}
}

// tailStream is the workload of the E1c tail rows: 2²¹ ids uniform over
// 2⁴⁰, so nearly every sampled id is new and the Misra-Gries tables
// fill and decrement as often as any stream makes them. Lazy so plain
// test runs don't pay the generation cost.
var tailStream = sync.OnceValue(func() []Item {
	return Generate(NewUniformStream(3, 1<<40), 1<<21)
})

// latencies records durations exactly: one count per nanosecond below
// 2¹⁶ ns, and the rare longer samples whole.
type latencies struct {
	n    int
	ns   [1 << 16]uint32
	long []time.Duration
}

func (l *latencies) add(d time.Duration) {
	l.n++
	if d < time.Duration(len(l.ns)) {
		l.ns[d]++
	} else {
		l.long = append(l.long, d)
	}
}

// quantile returns the q-quantile in ns: the smallest sample with at
// least q·n samples at or below it.
func (l *latencies) quantile(q float64) float64 {
	rank := max(int(math.Ceil(q*float64(l.n))), 1)
	seen := 0
	for d, c := range l.ns {
		if seen += int(c); seen >= rank {
			return float64(d)
		}
	}
	slices.Sort(l.long)
	return float64(l.long[rank-seen-1])
}

// over returns the number of samples longer than d.
func (l *latencies) over(d time.Duration) int {
	n := len(l.long)
	for _, c := range l.ns[min(d+1, time.Duration(len(l.ns))):] {
		n += int(c)
	}
	return n
}

// BenchmarkE1cInsertTail measures the worst case of a plain per-item
// Insert, which the mean rows cannot show. An Insert processes at most
// one sampled item, but that item's Misra-Gries update can sweep a whole
// table, so the tail grows with 1/ε (ROADMAP.md item 7). Every Insert is
// timed alone, on a fresh engine per 2²¹-item pass, the model-bits pass
// included, so even a short run times one whole stream. The row reports
// the p99.9 and p99.99 ns per Insert and the inserts over 2 µs per pass;
// ns/op includes the two clock reads around each Insert.
func BenchmarkE1cInsertTail(b *testing.B) {
	xs := tailStream()
	for _, algo := range []struct {
		name string
		a    Algorithm
	}{{"algo1", AlgorithmSimple}, {"algo2", AlgorithmOptimal}} {
		for _, eps := range []float64{0.01, 0.002} {
			b.Run(fmt.Sprintf("%s/eps=%g", algo.name, eps), func(b *testing.B) {
				lat := new(latencies)
				benchPasses(b, len(xs), func() (func(int), func() int64) {
					hh, err := buildSerial(config{
						Eps: eps, Phi: 0.05,
						StreamLength: uint64(len(xs)), Universe: 1 << 40,
						Algorithm: algo.a, Seed: 3,
					})
					if err != nil {
						b.Fatal(err)
					}
					runtime.GC() // start each pass without the last one's garbage
					return func(k int) {
						for _, x := range xs[:k] {
							t0 := time.Now()
							hh.Insert(x)
							lat.add(time.Since(t0))
						}
					}, hh.ModelBits
				})
				b.ReportMetric(lat.quantile(0.999), "p99.9-ns")
				b.ReportMetric(lat.quantile(0.9999), "p99.99-ns")
				b.ReportMetric(float64(lat.over(2*time.Microsecond))*float64(len(xs))/float64(lat.n), "over-2us/pass")
			})
		}
	}
}

// BenchmarkE1Report measures reporting time, which Theorem 2 requires to
// be linear in the output size.
func BenchmarkE1Report(b *testing.B) {
	hh, err := buildSerial(config{
		Eps: 0.02, Phi: 0.1, Delta: 0.1,
		StreamLength: uint64(len(benchStream)), Universe: 1 << 32,
		Algorithm: AlgorithmOptimal, Seed: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, x := range benchStream {
		hh.Insert(x)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = hh.Report()
	}
}

// --- E8: sharded concurrent ingest vs the serial path ---

// benchZipfStream is the workload for the sharded benchmarks and the
// BENCH_ingest.json ledger: a heavy-tailed Zipf stream, the
// insertion-stream setting the sharded engine targets. The Zipf support
// is 2²⁰ ids (the generator materializes a CDF of that length) inside
// the solvers' 2³⁰ universe. Lazy so plain test runs don't pay the
// generation cost.
var benchZipfStream = sync.OnceValue(func() []Item {
	return Generate(NewZipfStream(21, 1<<20, 1.1), 1<<20)
})

// ingestEps and ingestPhi are the ledger engine's ε and ϕ.
const ingestEps, ingestPhi = 0.01, 0.1

// ingestEngine builds the ledger's engine through New: serial when
// shards is 0, else sharded over that many workers, with extra options
// appended. ε = 0.01 with declared m = 2²² keeps the sample rate at 1,
// so per-item table work dominates and the sharded rows measure how
// that work parallelizes rather than raw hand-off overhead.
func ingestEngine(b *testing.B, shards int, extra ...Option) HeavyHitters {
	opts := append([]Option{
		WithEps(ingestEps), WithPhi(ingestPhi), WithDelta(0.1),
		WithStreamLength(1 << 22), WithUniverse(1 << 30), WithSeed(17),
	}, extra...)
	if shards > 0 {
		opts = append(opts, WithShards(shards))
	}
	hh, err := New(opts...)
	if err != nil {
		b.Fatal(err)
	}
	return hh
}

// benchInsertChunks is the timed loop of the batch ingest rows: b.N
// items of xs, read cyclically, in 8,192-item InsertBatch calls, then a
// Flush on a Flusher, so queued work counts inside the timer. len(xs)
// must be a power of two and a multiple of the chunk.
func benchInsertChunks(b *testing.B, hh HeavyHitters, xs []Item) {
	const chunk = 8192
	mask := len(xs) - 1
	b.ResetTimer()
	for off := 0; off < b.N; off += chunk {
		end := min(off+chunk, b.N)
		lo, hi := off&mask, end&mask
		if hi <= lo {
			hi = len(xs)
		}
		if err := hh.InsertBatch(xs[lo:hi]); err != nil {
			b.Fatal(err)
		}
	}
	if f, ok := hh.(Flusher); ok {
		f.Flush()
	}
	b.StopTimer()
}

// benchIngestSerial is the ledger's serial/insert row: one front-door
// Insert per item.
func benchIngestSerial(b *testing.B) {
	zipf := benchZipfStream()
	hh := ingestEngine(b, 0)
	defer hh.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := hh.Insert(zipf[i&(1<<20-1)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportBits(b, hh)
}

// benchIngestSharded returns the ledger's
// sharded/insert-batch/shards=K row for K = shards.
func benchIngestSharded(shards int) func(*testing.B) {
	return func(b *testing.B) {
		hh := ingestEngine(b, shards)
		defer hh.Close()
		b.ReportAllocs()
		benchInsertChunks(b, hh, benchZipfStream())
		reportBits(b, hh)
	}
}

// benchSkip returns a row at the embed-skip benchmark's engine: ε = 0.01,
// ϕ = 0.05, δ = 0.1, m = 2²⁸, so p = 2⁻⁸ and under 1% of the items
// reach the tables. shards = 0 is the serial InsertBatch path: the
// hash plus skip-sampler row. The sharded rows add the queue hand-off
// and the workers' partition pass. A run past 2²⁸ items samples a
// little more than the declared rate plans for, at the same p.
func benchSkip(shards int) func(*testing.B) {
	return func(b *testing.B) {
		opts := []Option{WithEps(0.01), WithPhi(0.05), WithDelta(0.1),
			WithStreamLength(1 << 28), WithUniverse(1 << 30), WithSeed(7)}
		if shards > 0 {
			opts = append(opts, WithShards(shards))
		}
		hh, err := New(opts...)
		if err != nil {
			b.Fatal(err)
		}
		defer hh.Close()
		b.ReportAllocs()
		benchInsertChunks(b, hh, benchZipfStream())
		reportBits(b, hh)
	}
}

// BenchmarkShardedInsert feeds a single producer through InsertBatch at
// 1–8 shards against the serial Insert loop. ns/op is per item; on a
// K-core machine the sharded rows should approach a K× speedup (the
// acceptance target is ≥ 2× at 8 shards), since the partition loop is
// cheap next to the per-item table work this config induces. The
// serial, shards=1 and shards=4 rows are the BENCH_ingest.json ledger's.
// The skip rows run the embed-skip engine (benchSkip), where the
// partition and the sampler, not the tables, are the cost.
func BenchmarkShardedInsert(b *testing.B) {
	b.Run("serial", benchIngestSerial)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), benchIngestSharded(shards))
	}
	b.Run("skip/serial", benchSkip(0))
	b.Run("skip/shards=1", benchSkip(1))
	b.Run("skip/shards=2", benchSkip(2))
}

// BenchmarkShardedInsertParallel is the many-producer story: GOMAXPROCS
// goroutines call InsertBatch concurrently, which is how a daemon under
// concurrent HTTP load drives the engine.
func BenchmarkShardedInsertParallel(b *testing.B) {
	const chunk = 8192
	zipf := benchZipfStream()
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			hh := ingestEngine(b, shards)
			defer hh.Close()
			b.ResetTimer()
			// One op = one item, as in BenchmarkShardedInsert; each
			// producer accumulates a local chunk before dispatching.
			b.RunParallel(func(pb *testing.PB) {
				batch := make([]Item, 0, chunk)
				pos := 0
				for pb.Next() {
					batch = append(batch, zipf[pos&(1<<20-1)])
					pos++
					if len(batch) == chunk {
						if err := hh.InsertBatch(batch); err != nil {
							b.Error(err)
							return
						}
						batch = batch[:0]
					}
				}
				if err := hh.InsertBatch(batch); err != nil {
					b.Error(err)
				}
			})
			hh.(Flusher).Flush()
			b.StopTimer()
		})
	}
}

// BenchmarkMergeCheckpoint measures the cluster-aggregation hot path:
// folding a peer node's checkpoint blob into a live engine (decode +
// per-shard state fold), the per-peer cost of every aggregator pull
// cycle in cmd/hhd cluster mode.
func BenchmarkMergeCheckpoint(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			peer := ingestEngine(b, shards)
			defer peer.Close()
			if err := peer.InsertBatch(benchZipfStream()); err != nil {
				b.Fatal(err)
			}
			blob, err := peer.MarshalBinary()
			if err != nil {
				b.Fatal(err)
			}
			live := ingestEngine(b, shards).(*shardedHH)
			defer live.Close()
			if err := live.InsertBatch(benchZipfStream()); err != nil {
				b.Fatal(err)
			}
			live.Flush()
			b.SetBytes(int64(len(blob)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := live.mergeCheckpoint(blob); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedInsertObserved is BenchmarkShardedInsert's
// observability twin: the same single-producer InsertBatch loop with the
// ingest-stage timing histograms installed through WithIngestObserver.
// Comparing its ns/op against BenchmarkShardedInsert's matching shard
// rows pins the overhead of observability enabled (acceptance: ≤ 2%);
// with no observer the cost is a nil check, so the disabled case needs
// no twin.
func BenchmarkShardedInsertObserved(b *testing.B) {
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			reg := obs.NewRegistry()
			wait := reg.Histogram("enqueue_wait", "", nil, obs.DurationBuckets)
			apply := reg.Histogram("batch_apply", "", nil, obs.DurationBuckets)
			hh := ingestEngine(b, shards, WithIngestObserver(IngestTimings{
				EnqueueWait: wait.ObserveDuration,
				BatchApply:  apply.ObserveDuration,
			}))
			defer hh.Close()
			benchInsertChunks(b, hh, benchZipfStream())
			if wait.Count() == 0 || apply.Count() == 0 {
				b.Fatal("hooks did not fire")
			}
		})
	}
}

// BenchmarkShardedReport measures the merged-report barrier on a loaded
// engine.
func BenchmarkShardedReport(b *testing.B) {
	hh := ingestEngine(b, 4)
	defer hh.Close()
	if err := hh.InsertBatch(benchZipfStream()); err != nil {
		b.Fatal(err)
	}
	hh.(Flusher).Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = hh.Report()
	}
}

// --- E2: Table 1 row 2 — ε-Maximum ---

func BenchmarkE2MaximumInsert(b *testing.B) {
	const n = 1 << 32
	m := uint64(len(benchStream))
	for _, eps := range []float64{0.05, 0.01} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			bits := benchPasses(b, len(benchStream), func() (func(int), func() int64) {
				mx, err := core.NewMaximum(rng.New(5), core.Config{Eps: eps, Delta: 0.1, M: m, N: n})
				if err != nil {
					b.Fatal(err)
				}
				return func(k int) {
					for _, x := range benchStream[:k] {
						mx.Insert(x)
					}
				}, mx.ModelBits
			})
			b.ReportMetric(float64(bits)/stats.MaxUpperBits(eps, n, m), "bits/bound")
		})
	}
}

// --- E3: Table 1 row 3 — ε-Minimum ---

func BenchmarkE3MinimumInsert(b *testing.B) {
	m := uint64(len(benchStream))
	for _, eps := range []float64{0.02, 0.005} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			bits := benchPasses(b, len(benchStream), func() (func(int), func() int64) {
				mn, err := minimum.New(rng.New(6), minimum.Config{Eps: eps, Delta: 0.1, M: m, N: 64})
				if err != nil {
					b.Fatal(err)
				}
				return func(k int) {
					for _, x := range benchStream[:k] {
						mn.Insert(x & 63)
					}
				}, mn.ModelBits
			})
			b.ReportMetric(float64(bits)/stats.MinUpperBits(eps, m), "bits/bound")
		})
	}
}

// --- E4/E5: Table 1 rows 4–5 — ε-Borda and ε-maximin ---

var benchVotes = func() []Ranking {
	g := voting.NewMallows(rng.New(7), voting.Identity(10), 0.6)
	out := make([]Ranking, 1<<14)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}()

func BenchmarkE4BordaInsert(b *testing.B) {
	m := uint64(len(benchVotes))
	for _, eps := range []float64{0.05, 0.01} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			bits := benchPasses(b, len(benchVotes), func() (func(int), func() int64) {
				bs, err := voting.NewBordaSketch(rng.New(8), voting.BordaConfig{N: 10, Eps: eps, Delta: 0.1, M: m})
				if err != nil {
					b.Fatal(err)
				}
				return func(k int) {
					for _, r := range benchVotes[:k] {
						bs.Insert(r)
					}
				}, bs.ModelBits
			})
			b.ReportMetric(float64(bits)/stats.BordaUpperBits(eps, 10, m), "bits/bound")
		})
	}
}

// benchMaximin runs the maximin sketch over benchVotes, declared at
// their length, and returns the one-pass model bits.
func benchMaximin(b *testing.B, seed uint64, eps float64, pairwise bool) int64 {
	return benchPasses(b, len(benchVotes), func() (func(int), func() int64) {
		ms, err := voting.NewMaximinSketch(rng.New(seed), voting.MaximinConfig{
			N: 10, Eps: eps, Delta: 0.1, M: uint64(len(benchVotes)), Pairwise: pairwise,
		})
		if err != nil {
			b.Fatal(err)
		}
		return func(k int) {
			for _, r := range benchVotes[:k] {
				ms.Insert(r)
			}
		}, ms.ModelBits
	})
}

func BenchmarkE5MaximinInsert(b *testing.B) {
	for _, eps := range []float64{0.1, 0.05} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			bits := benchMaximin(b, 9, eps, false)
			b.ReportMetric(float64(bits)/stats.MaximinUpperBits(eps, 10, uint64(len(benchVotes))), "bits/bound")
		})
	}
}

// --- E6: Theorems 7–8 — unknown stream length overhead ---

func BenchmarkE6UnknownLengthInsert(b *testing.B) {
	hh, err := buildSerial(config{
		Eps: 0.05, Phi: 0.15, Delta: 0.1, Universe: 1 << 32, Seed: 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hh.Insert(benchStream[i&(1<<20-1)])
	}
	b.StopTimer()
	reportBits(b, hh)
}

// --- E7: Theorem 9 reduction end-to-end ---

func BenchmarkE7Theorem9Reduction(b *testing.B) {
	red := commlower.Theorem9{A: 2, T: 10, Scale: 50}
	src := rng.New(11)
	x := make([]int, red.T)
	for j := range x {
		x[j] = j % red.A
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := red.Run(src.Split(), x, i%red.T)
		if err != nil {
			b.Fatal(err)
		}
		_ = out
	}
}

// --- A1: ablation — Algorithm 2's accelerated counters vs Algorithm 1's
// hashed exact counters at identical (ε, ϕ). The model-bits metrics of
// the two sub-benchmarks are the comparison. ---

func BenchmarkA1Ablation(b *testing.B) {
	for _, algo := range []struct {
		name string
		a    Algorithm
	}{{"accelerated", AlgorithmOptimal}, {"exact-hashed", AlgorithmSimple}} {
		b.Run(algo.name, func(b *testing.B) {
			benchListInsert(b, algo.a, 0.01, benchStream)
		})
	}
}

// --- A3: ablation — maximin storage: sampled votes (paper) vs pairwise
// matrix. ---

func BenchmarkA3MaximinStorage(b *testing.B) {
	for _, pw := range []struct {
		name string
		on   bool
	}{{"votes", false}, {"pairwise", true}} {
		b.Run(pw.name, func(b *testing.B) {
			benchMaximin(b, 12, 0.1, pw.on)
		})
	}
}

// --- Pool churn: the multi-tenant spill/revive tax (DESIGN.md §13) ---

// BenchmarkPoolChurn touches 256 tenants round-robin, LRU's worst case:
// once the resident set is full, every touch spills one tenant and
// revives another. The rows sweep the resident set from all 256 (no
// budget) down to 16. One op is one touch, a 256-item InsertBatch into
// an Algorithm 1 tenant. Each row reports the pool's evictions and
// revives per touch, and a budgeted row that has touched every tenant
// twice fails if it recorded no eviction or no revive.
func BenchmarkPoolChurn(b *testing.B) {
	const tenants = 256
	defaults := WithTenantDefaults(
		WithEps(0.02), WithPhi(0.1),
		WithStreamLength(1<<20), WithUniverse(1<<30),
		WithAlgorithm(AlgorithmSimple), WithSeed(1),
	)
	batch := make([]Item, 256)
	for i := range batch {
		batch[i] = Item(i % 97)
	}
	names := make([]string, tenants)
	for i := range names {
		names[i] = fmt.Sprintf("t%03d", i)
	}
	// One touched tenant's footprint turns a resident count into a budget.
	probe, err := NewPool(defaults)
	if err != nil {
		b.Fatal(err)
	}
	var perTenant int64
	if err := probe.InsertBatch("probe", batch); err != nil {
		b.Fatal(err)
	}
	if err := probe.View("probe", func(hh HeavyHitters) error {
		perTenant = hh.ModelBits()
		return nil
	}); err != nil {
		b.Fatal(err)
	}
	probe.Close()

	for _, resident := range []int{tenants, tenants / 4, tenants / 16} {
		b.Run(fmt.Sprintf("resident=%d", resident), func(b *testing.B) {
			popts := []PoolOption{defaults}
			if resident < tenants {
				popts = append(popts, WithPoolBudget(int64(resident)*perTenant))
			}
			p, err := NewPool(popts...)
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := p.InsertBatch(names[i%tenants], batch); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := p.Stats()
			b.ReportMetric(float64(st.Evictions)/float64(b.N), "evictions/op")
			b.ReportMetric(float64(st.Revives)/float64(b.N), "revives/op")
			if resident < tenants && b.N >= 2*tenants && (st.Evictions == 0 || st.Revives == 0) {
				b.Fatalf("%d touches under a %d-tenant budget: %d evictions, %d revives", b.N, resident, st.Evictions, st.Revives)
			}
		})
	}
}
