// Package core implements the paper's primary contribution: the
// (ε,ϕ)-List heavy hitters algorithms and the ε-Maximum algorithm for
// insertion streams.
//
// Three solvers are provided.
//
//   - SimpleList is Algorithm 1 (§3.1.1, Theorem 1): Bernoulli-sample
//     Θ(ε⁻²) stream items, hash their ids into a poly(1/ε) space so that id
//     storage costs O(log(1/ε)) instead of O(log n), run Misra-Gries with
//     Θ(1/ε) counters over the hashed ids, and separately remember the real
//     ids of the top Θ(1/ϕ) table entries. Space
//     O(ε⁻¹(log ε⁻¹ + log log δ⁻¹) + ϕ⁻¹ log n + log log m).
//
//   - Optimal is Algorithm 2 (§3.1.2, Theorem 2): Misra-Gries with Θ(1/ϕ)
//     counters over *raw* ids supplies candidates, while "accelerated
//     counters" — probabilistic counters whose increment probability rises
//     in epochs as the running frequency estimate grows — provide
//     O(ε⁻¹)-additive frequency estimates from O(ε⁻¹ log ϕ⁻¹) bits total.
//     Space O(ε⁻¹ log ϕ⁻¹ + ϕ⁻¹ log n + log log m), optimal by Theorems 9
//     and 14.
//
//   - Maximum is the ε-Maximum solver (§3.2, Theorem 3): Algorithm 1 with
//     the T2 table replaced by a single running-argmax id.
//
// All three process an Insert in O(1) amortized time: one sampler
// decrement on the common non-sampled path, and at most one sampled item
// per call. A sampled item is not O(1) worst case: its Misra-Gries update
// can sweep the whole table, O(1/ε) for Algorithm 1, and the paper's
// §3.1 spreading of that sweep over later inserts is not implemented.
// An InsertBatch costs one sampled item's work per sample (the unsampled
// runs between samples are skipped whole), and a report takes time
// linear in the output.
//
// The numerical constants live in Tuning; PaperTuning carries the literal
// constants from the pseudocode, DefaultTuning the smaller values the test
// suite validates. The paper's constants optimize proof convenience, not
// practice (e.g. ℓ = 10⁵·ε⁻² sampled items), so DefaultTuning is what the
// benchmarks run.
package core
