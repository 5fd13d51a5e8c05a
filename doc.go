// Package l1hh is a complete Go implementation of "An Optimal Algorithm
// for ℓ1-Heavy Hitters in Insertion Streams and Related Problems"
// (Bhattacharyya, Dey, Woodruff — PODS 2016), grown into a concurrent
// streaming system: serial solvers, a sharded multi-core ingest engine,
// a distributed merge tier, and sliding windows — all behind one front
// door.
//
// # One front door
//
// Every heavy hitters solver is built by New from functional options and
// used through the HeavyHitters interface:
//
//	hh, err := l1hh.New(
//		l1hh.WithEps(0.01), l1hh.WithPhi(0.05),
//		l1hh.WithStreamLength(1_000_000), l1hh.WithSeed(42),
//	)
//	if err != nil { ... }
//	for _, x := range stream {
//		if err := hh.Insert(x); err != nil { ... } // ErrClosed after Close
//	}
//	for _, r := range hh.Report() {
//		fmt.Printf("item %d ≈ %.0f occurrences\n", r.Item, r.F)
//	}
//
// The same call composes every tier — options stack in any order and the
// resulting engine stack is canonical (DESIGN.md §9):
//
//	l1hh.New(l1hh.WithEps(ε), l1hh.WithPhi(ϕ))                          // unknown stream length (Theorem 7)
//	l1hh.New(..., l1hh.WithStreamLength(m))                             // known length (serializable, mergeable)
//	l1hh.New(..., l1hh.WithShards(8))                                   // concurrent sharded ingest (DESIGN.md §3)
//	l1hh.New(..., l1hh.WithCountWindow(1e6, 64))                        // heavy hitters of the last 10⁶ items (§8)
//	l1hh.New(..., l1hh.WithShards(8), l1hh.WithCountWindow(1e6, 64))    // concurrent windowed ingest
//
// What a particular composition can additionally do is discovered by
// asserting small capability interfaces, never by naming concrete types:
//
//	if m, ok := hh.(l1hh.Merger); ok { m.Merge(peerCheckpoint) }  // distributed fold (DESIGN.md §7)
//	if w, ok := hh.(l1hh.Windower); ok { w.WindowStats() }        // sliding-window coverage
//	if f, ok := hh.(l1hh.Flusher); ok { f.Flush() }               // drain buffered work
//	if s, ok := hh.(l1hh.Sharder); ok { _ = s.Shards() }          // concurrent-ingest marker
//
// Checkpoints restore through the universal Unmarshal, whatever
// container produced them (serial, sharded, windowed, both):
//
//	blob, _ := hh.MarshalBinary()
//	restored, err := l1hh.Unmarshal(blob, l1hh.WithQueueDepth(128))
//
// # Related problems
//
// WithProblem keys the same front door to the paper's Related Problems
// (Theorems 5, 6 and §4): the default HeavyHittersProblem ingests items,
// the voting problems ingest ballots, and the extremes problems answer
// frequency-extreme queries. Each problem has its own option vocabulary
// — New rejects options outside it with an error naming the conflict —
// and its own capability interface discovered by type assertion:
//
//	v, _ := l1hh.New(
//		l1hh.WithProblem(l1hh.BordaProblem), l1hh.WithCandidates(10),
//		l1hh.WithEps(0.01), l1hh.WithPhi(0.1), l1hh.WithDelta(0.05),
//		l1hh.WithStreamLength(1_000_000), l1hh.WithSeed(42),
//	)
//	voter := v.(l1hh.Voter)                    // BordaProblem, MaximinProblem
//	_ = voter.Vote(l1hh.Ranking{2, 0, 1, ...}) // one ballot: a total order
//	winner, score := voter.Winner()            // Borda: score within ε·m·n
//
//	e, _ := l1hh.New(
//		l1hh.WithProblem(l1hh.MinFrequencyProblem), l1hh.WithUniverse(1000),
//		l1hh.WithEps(0.01), l1hh.WithDelta(0.05), l1hh.WithStreamLength(1_000_000),
//	)
//	min := e.(l1hh.Extremes)                 // MinFrequencyProblem, MaxFrequencyProblem
//	est, bound, _ := min.MinItem()           // estimate within bound = ε·m
//
//	if q, ok := hh.(l1hh.PointQuerier); ok { // heavy hitters with a known stream length
//		est, bound := q.Estimate(17)         // any item's frequency, within bound = ε·m
//	}
//
// PointQuerier.Estimate returns the error bar beside the estimate, as
// Extremes does: ε·max(m, Len()) for the stream length m the engine was
// declared at, which a restored checkpoint carries with it. Callers of
// the old one-value Estimate drop the bound or use it in place of their
// own ε·m.
//
// Currency errors are sentinels: Insert on a voting engine returns
// ErrNotItems, Vote on an items engine returns ErrNotRankings. The
// problem travels with the checkpoint (tags 7–10), so Unmarshal restores
// a Borda sketch as a Voter without being told. cmd/hhd serves the
// problems over /vote, /winner, /extremes and /point (-problem flag),
// and pool tenants can override the problem per tenant. DESIGN.md §14.
//
// # Multi-tenant pools
//
// NewPool keys independent sketches by tenant name behind one shared
// model-bits budget: a tenant's engine is built from the pool defaults
// on first touch, the least-recently-used tenant is checkpointed out to
// a spill store when the budget overflows, and a spilled tenant is
// revived transparently — bit-identical — on its next touch
// (DESIGN.md §13). One budget of B bits serves far more than
// B/ModelBits tenants; only the hot set is resident.
//
//	store, err := l1hh.NewDiskSpillStore(spillDir)
//	if err != nil { ... }
//	p, err := l1hh.NewPool(
//		l1hh.WithTenantDefaults(
//			l1hh.WithEps(0.01), l1hh.WithPhi(0.05),
//			l1hh.WithStreamLength(1_000_000), l1hh.WithSeed(42)),
//		l1hh.WithPoolBudget(50_000_000), // bits; 0 = never evict
//		l1hh.WithPoolSpill(store),       // default: in-memory
//	)
//	if err != nil { ... }
//	_ = p.Insert("alice", 17) // first touch builds alice's engine
//	err = p.View("alice", func(hh l1hh.HeavyHitters) error {
//		rep := hh.Report() // revives alice if she was spilled
//		...
//	})
//	blob, _ := p.MarshalBinary() // whole pool, spilled tenants included
//	restored, err := l1hh.UnmarshalPool(blob, l1hh.WithTenantDefaults( /* same */ ))
//
// Time-window and accuracy-sentinel tenants are pinned resident (their
// state cannot survive a spill gap), unknown-length tenants are
// volatile (never spilled, absent from pool checkpoints), and
// everything else spills. cmd/hhd mounts a pool under /t/{tenant}/…
// routes with -tenants.
//
// # What it provides
//
// Streaming solvers with the paper's optimal space bounds:
//
//   - New — the (ε,ϕ)-heavy hitters problem: one pass over a stream of
//     items, report every item with frequency ≥ ϕ·m, no item with
//     frequency ≤ (ϕ−ε)·m, and per-item estimates within ε·m. Two
//     engines: Algorithm 1 (simple, near-optimal) and Algorithm 2
//     (optimal, accelerated counters); unknown-length variants
//     (Theorems 7–8) when WithStreamLength is omitted.
//   - WithProblem(MaxFrequencyProblem), answered through Extremes — the
//     ε-Maximum problem / ℓ∞ approximation (IITK 2006 Open Question 3
//     for ℓ1): the most frequent item and its frequency ± ε·m.
//   - WithProblem(MinFrequencyProblem), answered through Extremes — the
//     ε-Minimum problem: an item of approximately minimum frequency over
//     a small universe (dislike counting, anomaly detection).
//   - WithProblem(BordaProblem) and WithProblem(MaximinProblem),
//     answered through Voter — rank-aggregation heavy hitters over
//     streams of votes (total orders), per Theorems 5 and 6.
//
// And three system tiers composed by New:
//
//   - WithShards — concurrent ingest: the universe hash-partitioned
//     across N solver shards, each owned by a worker goroutine, with
//     batched insertion from any number of producers, merged reports at
//     global thresholds, and coordinated checkpoints (DESIGN.md §3).
//   - Merger — the distributed merge tier: solvers built from the same
//     options (seed included) on different nodes fold into one summary
//     whose Report answers for the concatenated stream (DESIGN.md §7).
//     Incompatible states refuse with ErrIncompatibleMerge.
//   - WithCountWindow / WithTimeWindow — sliding windows: answer
//     (ε,ϕ)-heavy hitters over the last W items or the last D of wall
//     time instead of the whole stream, by folding epoch buckets with
//     the merge tier's rules at report time; the error bound degrades by
//     at most one retired epoch's mass (DESIGN.md §8).
//
// Plus synthetic workload generators and the paper's lower-bound
// reductions as executable artifacts (internal/commlower). Misra-Gries,
// the classic baseline, is internal: it backs the solvers' tables and
// the E1a benchmark rows, not the API. cmd/hhd serves the whole stack
// over HTTP; cmd/hhcli runs it over files and pipes.
//
// # Choosing an engine
//
// AlgorithmOptimal (the default) is the paper's space-optimal Algorithm
// 2; its accelerated counters carry an O(1/ε) additive error term, so
// it wants m ≫ ε⁻². AlgorithmSimple is Algorithm 1: slightly more
// space, exact counting whenever the stream is within its sample budget
// — which makes it the right engine for small streams and small
// windows (DESIGN.md §8).
//
// # Space accounting
//
// Every sketch has ModelBits, which reports its size in bits under the
// paper's accounting model (variable-length BB08 counters, ⌈log₂ n⌉-bit
// ids, O(log n)-bit hash seeds, O(log log m)-bit samplers). This is the
// number Table 1 of the paper bounds, and what the benchmark harness
// sweeps. Aggregates are honest: K shards cost K sketches, a B-bucket
// window costs B+1 window-scale sketches. Stats returns the same number
// alongside the rest of the operational snapshot. See DESIGN.md for the
// model, EXPERIMENTS.md for measurements.
//
// All randomness is seeded: the same options produce the same answers on
// the same stream, and same-seed solvers on different nodes are what
// the merge tier folds.
package l1hh
