package core

// Point queries. The paper's Report interface answers the list problem;
// exposing the underlying per-item estimators additionally turns the
// sketches into general frequency estimators over the stream, which the
// front door serves as PointQuerier.Estimate.

// Estimate returns the solver's frequency estimate for x, scaled to the
// full stream. For items tracked by the table it is accurate to ±ε·m with
// the usual probability; for untracked items it returns the table's
// (possibly zero) residual knowledge, an undercount.
func (a *SimpleList) Estimate(x uint64) float64 {
	if a.t1.Len() == 0 {
		return 0
	}
	return float64(a.t1.Estimate(a.h.Hash(x))) * a.scale()
}

// Estimate returns the accelerated-counter frequency estimate for x,
// scaled to the full stream: the median over repetitions of the epoch
// sums, regardless of whether x is a current Misra-Gries candidate. For
// ϕ-heavy items it is within ε·m whp; for arbitrary items the variance
// guarantee is the per-repetition O(1/ε) plus hash-collision mass.
func (o *Optimal) Estimate(x uint64) float64 {
	if o.s == 0 {
		return 0
	}
	ests := make([]float64, o.reps)
	for j := 0; j < o.reps; j++ {
		ests[j] = o.estimate(j, x)
	}
	return medianInPlace(ests) * float64(o.offered) / float64(o.s)
}
