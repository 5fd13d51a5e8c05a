package l1hh

// sentinel.go — the opt-in accuracy sentinel (WithAccuracySentinel): a
// sampled exact shadow of the stream that audits every Report against
// the solver's (ε,ϕ) contract at run time. Each occurrence is kept with
// probability p (geometric gap-skipping, so the per-item cost is a
// counter decrement, not a random draw); the sampled counts, scaled by
// the self-normalized factor seen/sampled, estimate true frequencies to
// within sampling noise. A report item whose estimate strays from its
// shadow truth by more than ε·m plus a 3σ noise allowance — or a
// ϕ-heavy shadow item missing from the report — counts as a guarantee
// violation. DESIGN.md §10 derives the noise allowance and its limits.

import (
	"math"
	"sync"

	"repro/internal/rng"
)

// maxSentinelKeys caps the exact-shadow map so a high-cardinality
// stream cannot turn the sentinel into an unbounded exact counter.
// Occurrences of ids that arrive once the map is full and were never
// sampled before are dropped (and counted in SentinelStats.Dropped);
// heavy items are sampled early with overwhelming probability, so the
// audit loses only tail keys it would never flag anyway.
const maxSentinelKeys = 1 << 17

// SentinelStats is the accuracy sentinel's snapshot, reported inside
// Stats when WithAccuracySentinel is active.
type SentinelStats struct {
	// SampleRate is the configured per-occurrence sampling probability.
	SampleRate float64
	// TotalSeen is the number of occurrences the sentinel observed
	// (every item accepted by the solver since construction).
	TotalSeen uint64
	// Sampled is the number of occurrences kept in the shadow.
	Sampled uint64
	// Keys is the number of distinct ids currently in the shadow.
	Keys int
	// Dropped is the number of sampled occurrences discarded because
	// the shadow was full (maxSentinelKeys) and the id was new.
	Dropped uint64
	// Checks is the number of reports audited so far.
	Checks uint64
	// Violations is the cumulative count of guarantee violations: a
	// reported estimate outside ε·m plus the sampling-noise allowance,
	// or a ϕ-heavy shadow item absent from a report.
	Violations uint64
	// ObservedEps is the worst per-item error fraction |est−truth|/m
	// over the most recently audited report; it includes sampling
	// noise, so on small streams it can exceed the true error.
	ObservedEps float64
	// MaxObservedEps is the worst ObservedEps over every audit so far.
	MaxObservedEps float64
	// Incoherent reports that the solver has merged foreign state the
	// sentinel never observed; audits are suspended from that point.
	Incoherent bool
}

// sentinel is the shadow sampler. One mutex guards everything: the hot
// path amortizes it over batches and, between samples, does a single
// counter decrement per occurrence, so the lock is held for a handful
// of nanoseconds per batch.
type sentinel struct {
	rate float64

	mu      sync.Mutex
	src     *rng.Source
	counts  map[uint64]uint64
	skip    uint64 // occurrences to pass over before the next sample
	seen    uint64
	sampled uint64
	dropped uint64

	checks      uint64
	violations  uint64
	observedEps float64
	maxObserved float64
	foreign     bool
}

// newSentinel builds a sentinel sampling each occurrence with
// probability rate ∈ (0,1], seeded from src (callers derive it from the
// solver seed, so runs are reproducible).
func newSentinel(rate float64, src *rng.Source) *sentinel {
	s := &sentinel{
		rate:   rate,
		src:    src,
		counts: make(map[uint64]uint64),
	}
	s.skip = s.nextGap()
	return s
}

// nextGap draws the number of occurrences to pass over before the next
// sample: geometric with success probability rate, via inversion.
func (s *sentinel) nextGap() uint64 {
	if s.rate >= 1 {
		return 0
	}
	u := s.src.Float64()
	// 1-u ∈ (0,1], so the log is finite and ≤ 0.
	g := math.Floor(math.Log(1-u) / math.Log(1-s.rate))
	if g < 0 || g > 1e18 {
		return 1e18 // rate so small the gap overflows: effectively off
	}
	return uint64(g)
}

// observe records one occurrence. Nil-safe.
func (s *sentinel) observe(x Item) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.seen++
	if s.skip > 0 {
		s.skip--
	} else {
		s.take(x)
		s.skip = s.nextGap()
	}
	s.mu.Unlock()
}

// observeBatch records a batch under one lock acquisition, skipping
// between samples by index arithmetic instead of per-item work.
// Nil-safe.
func (s *sentinel) observeBatch(items []Item) {
	if s == nil || len(items) == 0 {
		return
	}
	s.mu.Lock()
	s.seen += uint64(len(items))
	i := s.skip
	for i < uint64(len(items)) {
		s.take(items[i])
		i += s.nextGap() + 1
	}
	s.skip = i - uint64(len(items))
	s.mu.Unlock()
}

// take adds one sampled occurrence to the shadow, respecting the key
// cap. Callers hold mu.
func (s *sentinel) take(x Item) {
	s.sampled++
	if _, ok := s.counts[x]; !ok && len(s.counts) >= maxSentinelKeys {
		s.dropped++
		return
	}
	s.counts[x]++
}

// markForeign suspends auditing: the solver absorbed state (a Merge)
// the sentinel never sampled, so shadow truth no longer describes the
// solver's stream. Nil-safe.
func (s *sentinel) markForeign() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.foreign = true
	s.mu.Unlock()
}

// check audits one report against the shadow. m is the stream length
// the report answers for — the sentinel's own occurrence count, which
// is coherent with what it sampled. Nil-safe; no-op once foreign or
// before anything was sampled.
func (s *sentinel) check(report []ItemEstimate, eps, phi float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.foreign || s.sampled == 0 || s.seen == 0 {
		return
	}
	s.checks++
	m := float64(s.seen)
	scale := m / float64(s.sampled)
	worst := 0.0
	inReport := make(map[Item]bool, len(report))
	for _, r := range report {
		inReport[r.Item] = true
		truth := float64(s.counts[r.Item]) * scale
		diff := math.Abs(r.F - truth)
		if frac := diff / m; frac > worst {
			worst = frac
		}
		if diff > eps*m+noise(truth, scale) {
			s.violations++
		}
	}
	// Miss check: a shadow item whose truth estimate clears ϕ·m even
	// after discounting sampling noise must have been reported.
	for x, c := range s.counts {
		truth := float64(c) * scale
		if truth-noise(truth, scale) > phi*m && !inReport[x] {
			s.violations++
		}
	}
	s.observedEps = worst
	if worst > s.maxObserved {
		s.maxObserved = worst
	}
}

// noise is the 3σ allowance on a scaled shadow count: a sampled count c
// has variance ≈ c·(1−p)/p², so truth = c·scale carries standard
// deviation ≈ sqrt(truth·scale). The max(·,1) keeps the allowance
// meaningful for never-sampled items (truth 0).
func noise(truth, scale float64) float64 {
	return 3 * math.Sqrt(math.Max(truth, 1)*scale)
}

// snapshot returns the sentinel's current statistics. Nil-safe: the
// zero value on a nil receiver.
func (s *sentinel) snapshot() SentinelStats {
	if s == nil {
		return SentinelStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return SentinelStats{
		SampleRate:     s.rate,
		TotalSeen:      s.seen,
		Sampled:        s.sampled,
		Keys:           len(s.counts),
		Dropped:        s.dropped,
		Checks:         s.checks,
		Violations:     s.violations,
		ObservedEps:    s.observedEps,
		MaxObservedEps: s.maxObserved,
		Incoherent:     s.foreign,
	}
}

// attach adds the audit snapshot to a solver's Stats; a no-op without a
// sentinel.
func (s *sentinel) attach(st *Stats) {
	if s == nil {
		return
	}
	ss := s.snapshot()
	st.Sentinel = &ss
	st.ObservedEps = ss.ObservedEps
}
