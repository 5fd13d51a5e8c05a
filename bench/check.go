package main

import (
	"fmt"
	"math"
)

// estimate is one reported heavy hitter, in process or decoded from hhd.
type estimate struct {
	Item     uint64  `json:"item"`
	Estimate float64 `json:"estimate"`
}

// guarantee is the (ε,ϕ) contract one report is checked against.
type guarantee struct {
	eps, phi float64
	// n is the stream length the report answers for (its Len).
	n uint64
	// m is the declared stream length the engine was sized for; error bars
	// are ε·max(m, n), so a stream shorter than declared is not held to a
	// tighter bar than its sketch can give.
	m uint64
	// recall, when non-nil, holds the exact counts inclusion is judged on
	// (a window's last W items), with recallN their length; otherwise
	// inclusion is judged on the same counts as the estimates.
	recall  []uint64
	recallN uint64
}

// checkReport applies the gate to one report: every item with f ≥ ϕn is
// reported, nothing with f ≤ (ϕ−ε)n is reported, and every estimate is
// within εM of f, where M = max(m, n). When M > n the inclusion and
// exclusion lines move outward by ε(M−n), the same slack the error bar
// grants. truth holds exact counts per Zipf rank. It returns the largest
// |f̃−f| ÷ εM and one message per violation.
func checkReport(rep []estimate, truth []uint64, g guarantee) (maxErr float64, violations []string) {
	bigM := float64(max(g.m, g.n))
	n := float64(g.n)
	slack := g.eps * (bigM - n)
	freq := func(counts []uint64, item uint64) float64 {
		if r, ok := rankOf(item); ok {
			return float64(counts[r])
		}
		return 0
	}
	reported := make(map[uint64]bool, len(rep))
	for _, e := range rep {
		reported[e.Item] = true
		f := freq(truth, e.Item)
		if f <= (g.phi-g.eps)*n-slack {
			violations = append(violations, fmt.Sprintf(
				"item %d reported with f=%.0f ≤ (ϕ−ε)·n=%.0f", e.Item, f, (g.phi-g.eps)*n))
		}
		d := math.Abs(e.Estimate - f)
		if d > g.eps*bigM {
			violations = append(violations, fmt.Sprintf(
				"item %d estimate %.0f vs f=%.0f exceeds ε·M=%.0f", e.Item, e.Estimate, f, g.eps*bigM))
		}
		maxErr = max(maxErr, d/(g.eps*bigM))
	}
	recall, recallN := truth, n
	if g.recall != nil {
		recall, recallN = g.recall, float64(g.recallN)
	}
	for r, c := range recall {
		if f := float64(c); f >= g.phi*recallN+slack && !reported[itemOf(uint32(r))] {
			violations = append(violations, fmt.Sprintf(
				"item %d with f=%.0f ≥ ϕ·n=%.0f not reported", itemOf(uint32(r)), f, g.phi*recallN))
		}
	}
	return maxErr, violations
}

// sameReport reports whether two reports list the same items with the
// same estimates, in order.
func sameReport(a, b []estimate) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
