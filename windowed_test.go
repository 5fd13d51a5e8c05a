package l1hh

// Windowed conformance suite: windowedSolver (serially and
// through the sharded path) must answer (ε,ϕ)-heavy hitters for the
// sliding window — every item with window-frequency ≥ ϕ·W reported,
// nothing reported below (ϕ−ε)·M over the covered mass M, estimates
// within ε·M — across zipf, uniform and adversarial regime-shift
// streams, for W ∈ {10³, 10⁵}, with checkpoint round-trips preserving
// reports bit-identically. Count-mode windows cover an exact stream
// suffix, so the serial assertions run against exact suffix counts.

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/exact"
	"repro/internal/shard"
)

// Window conformance parameters.
const (
	winEps = 0.05
	winPhi = 0.1
)

// windowAlgos returns the engines whose valid regime covers per-bucket
// streams of window length w. Algorithm 2's accelerated counters carry
// an O(1/ε) additive error that must stay below ε·W, so it needs
// W ≫ ε⁻²; small windows are Algorithm 1 territory — it counts exactly
// at that scale (DESIGN.md §8).
func windowAlgos(w uint64) map[Algorithm]string {
	if w <= 10_000 {
		return map[Algorithm]string{AlgorithmSimple: "simple"}
	}
	return map[Algorithm]string{AlgorithmOptimal: "optimal", AlgorithmSimple: "simple"}
}

// windowStreams materializes the fixed windowed test streams for window
// length w: 1.5·w of one regime followed by 1.25·w of another, so the
// window covers only the tail regime and the whole-stream answer
// differs from the window answer.
func windowStreams(w uint64) map[string][]Item {
	n := int(w)
	shift := func(seedA, seedB uint64, wa, wb []float64) []Item {
		a := GeneratePlantedStream(seedA, 3*n/2, wa, 1<<20, 1<<30, OrderShuffled)
		b := GeneratePlantedStream(seedB, 5*n/4, wb, 1<<20, 1<<30, OrderShuffled)
		return append(a, b...)
	}
	return map[string][]Item{
		// Stationary zipf: the same ids are heavy in every window.
		"zipf": Generate(NewZipfStream(211, 1<<20, 1.3), 11*n/4),
		// Stationary uniform over 8 ids: all of them 0.125 ≥ ϕ heavy.
		"uniform": Generate(NewUniformStream(223, 8), 11*n/4),
		// Adversarial regime shift: items 1–3 carry the first phase,
		// items 11–13 the second; the window must report the second
		// family and have fully forgotten the first.
		"regime-shift": shift(227, 229,
			[]float64{0, 0.20, 0.12, 0.06},                                // phase 1: ids 1,2,3 heavy
			[]float64{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0.20, 0.12, 0.06}), // phase 2: ids 11,12,13
	}
}

// plantedWeights returns the planted heavy ids of each windowStreams
// phase relevant to the window (the tail regime).
var windowHeavy = map[string][]Item{
	"regime-shift": {11, 12, 13},
}
var windowStale = map[string][]Item{
	"regime-shift": {1, 2, 3},
}

// suffixCounts counts the last n items of stream exactly.
func suffixCounts(stream []Item, n uint64) *exact.Counter {
	c := exact.New()
	for _, x := range stream[uint64(len(stream))-n:] {
		c.Insert(x)
	}
	return c
}

// assertWindowReport checks the (ε,ϕ) window contract for a report over
// a count window of length w whose covered mass is m (so the report's
// exact coverage is the last m items of stream).
func assertWindowReport(t *testing.T, stream []Item, rep []ItemEstimate, w, m uint64) {
	t.Helper()
	cap := (w + 7) / 8 // default WindowBuckets = 8
	if m < min(w, uint64(len(stream))) || (uint64(len(stream)) >= w+cap && m >= w+cap) {
		t.Fatalf("covered mass %d outside [min(W,len), W+cap) for W=%d", m, w)
	}
	covered := suffixCounts(stream, m)
	window := suffixCounts(stream, min(w, uint64(len(stream))))
	got := make(map[Item]float64, len(rep))
	for _, r := range rep {
		got[r.Item] = r.F
	}
	// Inclusion: window-frequency ≥ ϕ·W ⇒ reported.
	phiW := winPhi * float64(min(w, uint64(len(stream))))
	for _, x := range window.Items() {
		if float64(window.Freq(x)) >= phiW {
			if _, ok := got[x]; !ok {
				t.Errorf("item %d has window frequency %d ≥ ϕW=%.0f but is not reported",
					x, window.Freq(x), phiW)
			}
		}
	}
	// Exclusion and estimates, against the exact covered suffix.
	for x, f := range got {
		truth := float64(covered.Freq(x))
		if truth <= (winPhi-winEps)*float64(m) {
			t.Errorf("item %d reported with covered frequency %.0f ≤ (ϕ−ε)M=%.0f",
				x, truth, (winPhi-winEps)*float64(m))
		}
		if diff := f - truth; diff < -winEps*float64(m) || diff > winEps*float64(m) {
			t.Errorf("item %d estimate %.0f vs covered frequency %.0f exceeds εM=%.0f",
				x, f, truth, winEps*float64(m))
		}
	}
}

// TestWindowedConformanceSerial: both engines, all stream shapes,
// W ∈ {10³, 10⁵}, with a checkpoint round-trip mid-stream and a
// bit-identical report check at the end.
func TestWindowedConformanceSerial(t *testing.T) {
	for _, w := range []uint64{1_000, 100_000} {
		for name, stream := range windowStreams(w) {
			for algo, algoName := range windowAlgos(w) {
				t.Run(fmt.Sprintf("%s/W=%d/%s", name, w, algoName), func(t *testing.T) {
					hh, err := buildWindowed(windowConfig{
						config: config{
							Eps: winEps, Phi: winPhi, Delta: 0.05,
							Universe: 1 << 31, Algorithm: algo, Seed: 7,
						},
						Window: w,
					})
					if err != nil {
						t.Fatal(err)
					}
					// First half, checkpoint, restore, second half on the
					// restored solver: the window must survive the trip.
					half := len(stream) / 2
					for _, x := range stream[:half] {
						hh.Insert(x)
					}
					blob, err := hh.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					restored, err := unmarshalWindowed(blob, nil)
					if err != nil {
						t.Fatal(err)
					}
					for _, x := range stream[half:] {
						restored.Insert(x)
					}
					m := restored.Len()
					rep := restored.Report()
					assertWindowReport(t, stream, rep, w, m)
					for _, x := range windowStale[name] {
						for _, r := range rep {
							if r.Item == x {
								t.Errorf("stale heavy item %d still reported with %.0f", x, r.F)
							}
						}
					}
					// Round-trip at the end: reports must be bit-identical.
					blob2, err := restored.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					twin, err := unmarshalWindowed(blob2, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(rep, twin.Report()) {
						t.Error("checkpoint round-trip changed the report")
					}
					blob3, err := twin.MarshalBinary()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(blob2, blob3) {
						t.Error("re-marshalling a restored solver changed the encoding")
					}
				})
			}
		}
	}
}

// TestWindowedConformanceSharded: the same streams through the sharded
// path. Per-shard windows cover per-substream suffixes, which union to
// approximately the global suffix; the assertions use the planted
// margins rather than exact suffix counts.
func TestWindowedConformanceSharded(t *testing.T) {
	for _, w := range []uint64{1_000, 100_000} {
		for name, stream := range windowStreams(w) {
			algo := AlgorithmOptimal
			if w <= 10_000 {
				algo = AlgorithmSimple // per-shard windows are W/4: small-window regime
			}
			t.Run(fmt.Sprintf("%s/W=%d", name, w), func(t *testing.T) {
				sh, err := newShardedSolver(shardedConfig{
					config: config{
						Eps: winEps, Phi: winPhi, Delta: 0.05,
						Universe: 1 << 31, Algorithm: algo, Seed: 7,
					},
					Shards: 4,
					Window: w,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer sh.Close()
				if err := sh.InsertBatch(stream); err != nil {
					t.Fatal(err)
				}
				rep := sh.Report()
				m := sh.Len()
				if m < w/2 || m > 2*w {
					t.Fatalf("global covered mass %d implausible for W=%d", m, w)
				}
				got := make(map[Item]float64, len(rep))
				for _, r := range rep {
					got[r.Item] = r.F
				}
				// The tail regime's planted heavies are ≥ 0.06 ≥ ϕ+ε of
				// any window; they must be reported. Stale heavies must
				// be gone.
				window := suffixCounts(stream, min(w, uint64(len(stream))))
				phiW := winPhi * float64(min(w, uint64(len(stream))))
				for _, x := range window.Items() {
					if float64(window.Freq(x)) >= phiW*1.5 { // generous margin for shard skew
						if _, ok := got[x]; !ok {
							t.Errorf("item %d window frequency %d well above ϕW=%.0f but unreported",
								x, window.Freq(x), phiW)
						}
					}
				}
				for _, x := range windowStale[name] {
					if f, ok := got[x]; ok {
						t.Errorf("stale heavy item %d still reported with %.0f", x, f)
					}
				}
				// Checkpoint round-trip: report must be bit-identical.
				blob, err := sh.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				restored, err := restoreSharded(blob)
				if err != nil {
					t.Fatal(err)
				}
				defer restored.Close()
				if !restored.Windowed() {
					t.Fatal("restored solver lost its window")
				}
				if !reflect.DeepEqual(rep, restored.Report()) {
					t.Error("sharded checkpoint round-trip changed the report")
				}
				if st, ok := restored.WindowStats(); !ok || st.Covered != m {
					t.Errorf("restored WindowStats covered %d ok=%v, want %d", st.Covered, ok, m)
				}
			})
		}
	}
}

// Skew conformance parameters: the DESIGN.md §8 counterexample regime —
// ϕ large enough that a dominant item's self-inflated shard share can
// push it under the raw fold's global threshold.
const (
	winSkewEps = 0.05
	winSkewPhi = 0.2
	winSkewW   = 20_000
)

// skewStream materializes a single-dominant-item zipf regime: item 1 at
// rate r, a zipf-flavoured light tail (items 2–6, all far below the
// (ϕ−ε) exclusion line), and unique-id noise for the rest.
func skewStream(seed uint64, n int, r float64) []Item {
	weights := []float64{0, r, 0.050, 0.037, 0.025, 0.012, 0.006}
	return GeneratePlantedStream(seed, n, weights, 1<<20, 1<<30, OrderShuffled)
}

// feedChunks streams items through InsertBatch in moderate chunks, the
// way real producers do. Chunked calls also keep the global-arrival
// stamps batch-accurate, which is what the share measurement rides on.
func feedChunks(t *testing.T, sh *shardedSolver, items []Item) {
	t.Helper()
	const chunk = 1024
	for off := 0; off < len(items); off += chunk {
		end := min(off+chunk, len(items))
		if err := sh.InsertBatch(items[off:end]); err != nil {
			t.Fatal(err)
		}
	}
}

// newSkewSharded builds the skew-regime solver.
func newSkewSharded(t *testing.T, shards int) *shardedSolver {
	t.Helper()
	sh, err := newShardedSolver(shardedConfig{
		config: config{
			Eps: winSkewEps, Phi: winSkewPhi, Delta: 0.05,
			Universe: 1 << 31, Algorithm: AlgorithmSimple, Seed: 7,
		},
		Shards: shards,
		Window: winSkewW,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sh.Close() })
	return sh
}

// faceValueFold is the raw count-window fold, kept as a test-local
// control: every shard's estimates at weight 1 against the global
// (ϕ − ε/2)·m threshold. It is what the extrapolated fold degrades to
// when no shard's share is trusted (DESIGN.md §8).
func faceValueFold(sh *shardedSolver) map[Item]float64 {
	n := sh.s.Shards()
	reports := make([][]ItemEstimate, n)
	lens := make([]uint64, n)
	sh.s.Do(func(i int, e shard.Engine) {
		reports[i] = e.Report()
		lens[i] = e.Len()
	})
	var m uint64
	for _, l := range lens {
		m += l
	}
	thresh := (sh.phi - sh.eps/2) * float64(m)
	out := map[Item]float64{}
	for _, rep := range reports {
		for _, r := range rep {
			if r.F >= thresh {
				out[r.Item] = r.F
			}
		}
	}
	return out
}

// TestWindowedShardedSkew: a dominant item inflates its own shard's
// traffic share, shrinking that shard's ⌈W/K⌉-item suffix relative to
// the global window — DESIGN.md §8 derives that the raw fold then needs
// r ≥ (ϕ−ε/2)(1+(K−1)r) to report it, which misses a 30%-of-traffic
// item at ϕ = 0.2, K = 4. The rate-extrapolated fold must report every
// item with window frequency ≥ ϕ·W regardless of K, exclude everything
// under (ϕ−ε)·M, survive a checkpoint round-trip bit-identically, and
// make the skew observable through WindowStats; the face-value fold
// over the same shards must reproduce the legacy inclusion boundary,
// counterexample included.
func TestWindowedShardedSkew(t *testing.T) {
	for _, r := range []float64{0.3, 0.5} {
		for _, shards := range []int{4, 8} {
			t.Run(fmt.Sprintf("r=%.1f/K=%d", r, shards), func(t *testing.T) {
				stream := skewStream(307+uint64(shards)+uint64(r*10), 11*winSkewW/4, r)
				sh := newSkewSharded(t, shards)
				feedChunks(t, sh, stream)

				rep := sh.Report()
				m := sh.Len()
				if m < winSkewW || m > 2*winSkewW {
					t.Fatalf("covered mass %d implausible for W=%d", m, winSkewW)
				}
				window := suffixCounts(stream, winSkewW)
				got := make(map[Item]float64, len(rep))
				for _, it := range rep {
					got[it.Item] = it.F
				}
				// Inclusion: window frequency ≥ ϕ·W ⇒ reported — the one
				// guarantee the paper's (ε,ϕ) contract exists to give,
				// and exactly what the raw fold loses under skew.
				for _, x := range window.Items() {
					if float64(window.Freq(x)) >= winSkewPhi*float64(winSkewW) {
						if _, ok := got[x]; !ok {
							t.Errorf("item %d window frequency %d ≥ ϕW=%.0f missed by extrapolated fold",
								x, window.Freq(x), winSkewPhi*float64(winSkewW))
						}
					}
				}
				if _, ok := got[1]; !ok {
					t.Errorf("dominant item (rate %.1f) missing from extrapolated report", r)
				}
				// Exclusion: nothing under (ϕ−ε)·M is reported.
				for x := range got {
					if float64(window.Freq(x)) <= (winSkewPhi-winSkewEps)*float64(m) {
						t.Errorf("item %d window frequency %d ≤ (ϕ−ε)M=%.0f but reported",
							x, window.Freq(x), (winSkewPhi-winSkewEps)*float64(m))
					}
				}
				// The dominant item's estimate must be extrapolated back
				// to ≈ r·M, not the deflated per-shard count r·M/(Kc).
				if est := got[1]; est < 0.8*r*float64(m) || est > 1.2*r*float64(m) {
					t.Errorf("dominant estimate %.0f not ≈ rM = %.0f (extrapolation off)", est, r*float64(m))
				}

				// Observability: the skew shows up in WindowStats.
				st, ok := sh.WindowStats()
				if !ok || !st.Extrapolated {
					t.Fatalf("WindowStats ok=%v extrapolated=%v, want true/true", ok, st.Extrapolated)
				}
				if st.ShareSkew < 1.5 {
					t.Errorf("ShareSkew %.2f too small for a %.0f%%-of-traffic item", st.ShareSkew, 100*r)
				}
				if st.CoveredMin == 0 || st.CoveredMax < st.CoveredMin || st.CoveredMax > 2*st.CoveredMin {
					t.Errorf("per-shard coverage bounds implausible: min %d max %d", st.CoveredMin, st.CoveredMax)
				}

				// Checkpoint round-trip: the extrapolated report (and the
				// share accounting behind it) must restore bit-identically.
				blob, err := sh.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				restored, err := Unmarshal(blob)
				if err != nil {
					t.Fatal(err)
				}
				defer restored.Close()
				if !reflect.DeepEqual(rep, restored.Report()) {
					t.Error("checkpoint round-trip changed the extrapolated report")
				}

				// The face-value fold reproduces the DESIGN §8 inclusion
				// boundary: raw per-shard counts clear the global
				// threshold only when r ≥ (ϕ−ε/2)(1+(K−1)r).
				_, rawHas := faceValueFold(sh)[1]
				wantLegacy := r >= (winSkewPhi-winSkewEps/2)*(1+float64(shards-1)*r)
				if rawHas != wantLegacy {
					t.Errorf("face-value fold reported dominant = %v, DESIGN §8 bound predicts %v", rawHas, wantLegacy)
				}
			})
		}
	}
}

// reportedSet indexes a report by item.
func reportedSet(rep []ItemEstimate) map[Item]float64 {
	out := make(map[Item]float64, len(rep))
	for _, r := range rep {
		out[r.Item] = r.F
	}
	return out
}

// TestWindowedShardedStaleShard: a shard whose ids stop arriving stops
// sliding (DESIGN.md §8) — under a face-value fold its frozen buckets keep
// contributing at full weight, so a long-gone heavy item stays in the
// report indefinitely. The extrapolated fold prices the frozen shard's
// coverage against the global arrivals it actually spans and
// down-weights it away, while still reporting the live traffic's
// heavies; the skew is observable as a large ShareSkew.
func TestWindowedShardedStaleShard(t *testing.T) {
	const shards = 4
	sh := newSkewSharded(t, shards)

	// Phase 1: item 1 dominates at 60% — heavy enough that the
	// face-value fold reports it even from its self-skewed shard.
	phase1 := skewStream(401, 3*winSkewW/2, 0.6)
	// Phase 2: traffic that never routes to item 1's shard, so that
	// shard freezes with item 1's buckets live. Item heavyB carries 30%
	// of the new regime; the background is unique light ids.
	shardA := sh.s.ShardOf(1)
	pick := func(start uint64) uint64 {
		for id := start; ; id++ {
			if sh.s.ShardOf(id) != shardA {
				return id
			}
		}
	}
	heavyB := pick(2 << 20)
	phase2 := make([]Item, 0, 5*winSkewW)
	next := uint64(3 << 20)
	for i := 0; len(phase2) < cap(phase2); i++ {
		if i%10 < 3 {
			phase2 = append(phase2, heavyB)
			continue
		}
		next = pick(next + 1)
		phase2 = append(phase2, next)
	}
	feedChunks(t, sh, phase1)
	feedChunks(t, sh, phase2)

	got := reportedSet(sh.Report())
	if f, ok := got[1]; ok {
		t.Errorf("frozen shard's stale item still reported with %.0f by the extrapolated fold", f)
	}
	if _, ok := got[heavyB]; !ok {
		t.Errorf("live heavy item %d (30%% of current traffic) missing from extrapolated report", heavyB)
	}
	// Control: the face-value fold exhibits the §8 staleness bug — the
	// frozen buckets contribute at full weight and item 1 (absent from
	// the last 5·W global items) is still reported.
	if _, ok := faceValueFold(sh)[1]; !ok {
		t.Error("face-value fold no longer reproduces the stale-shard bug the extrapolated fold fixes")
	}
	st, ok := sh.WindowStats()
	if !ok {
		t.Fatal("WindowStats unavailable")
	}
	if st.ShareSkew < 3 {
		t.Errorf("ShareSkew %.2f should expose the frozen shard (live shards carry ≈ K× its share)", st.ShareSkew)
	}
}

// TestWindowedEdgeCases: W=1, W larger than the stream, and tiny
// windows over heavy repetition.
func TestWindowedEdgeCases(t *testing.T) {
	base := config{
		Eps: 0.1, Phi: 0.4, Delta: 0.05, Universe: 1 << 20, Seed: 3,
		Algorithm: AlgorithmSimple,
	}
	t.Run("W=1", func(t *testing.T) {
		hh, err := buildWindowed(windowConfig{config: base, Window: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 50; i++ {
			hh.Insert(i)
			if hh.Len() != 1 {
				t.Fatalf("W=1 covered %d", hh.Len())
			}
			rep := hh.Report()
			if len(rep) != 1 || rep[0].Item != i {
				t.Fatalf("W=1 report %v after inserting %d", rep, i)
			}
		}
	})
	t.Run("W>stream", func(t *testing.T) {
		hh, err := buildWindowed(windowConfig{config: base, Window: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			hh.Insert(uint64(i % 2)) // both ids at 0.5 ≥ ϕ
		}
		if total := hh.WindowStats().Total; hh.Len() != 1000 || total != 1000 {
			t.Fatalf("covered/total %d/%d", hh.Len(), total)
		}
		rep := hh.Report()
		if len(rep) != 2 {
			t.Fatalf("want both heavy ids, got %v", rep)
		}
		if st := hh.WindowStats(); st.Retired != 0 {
			t.Fatalf("nothing should retire: %+v", st)
		}
	})
	t.Run("invalid-config", func(t *testing.T) {
		if _, err := buildWindowed(windowConfig{config: base}); err == nil {
			t.Fatal("no window mode must error")
		}
		if _, err := buildWindowed(windowConfig{
			config: base, Window: 10, WindowDuration: time.Second,
		}); err == nil {
			t.Fatal("both window modes must error")
		}
		if _, err := buildWindowed(windowConfig{
			config:         config{Eps: 0.1, Phi: 0.4, Delta: 0.05, Universe: 1 << 20},
			WindowDuration: time.Second, // StreamLength 0: no per-window mass
		}); err == nil {
			t.Fatal("duration window without StreamLength must error")
		}
		if _, err := newShardedSolver(shardedConfig{
			config: base, Window: 10, WindowDuration: time.Second,
		}); err == nil {
			t.Fatal("sharded: both window modes must error")
		}
		// Overflow guards: a near-2⁶⁴ window would wrap the ⌈W/B⌉ and
		// per-shard-split arithmetic into a degenerate window.
		if _, err := buildWindowed(windowConfig{
			config: base, Window: ^uint64(0),
		}); err == nil {
			t.Fatal("absurd Window must error, not wrap")
		}
		if _, err := newShardedSolver(shardedConfig{
			config: base, Window: ^uint64(0), Shards: 2,
		}); err == nil {
			t.Fatal("sharded: absurd Window must error, not wrap")
		}
		if _, err := newShardedSolver(shardedConfig{
			config: base, WindowDuration: -time.Second, Shards: 2,
		}); err == nil {
			t.Fatal("sharded: negative WindowDuration must error, not silently unwindow")
		}
	})
}

// TestWindowedDuration drives a time-based window with an injected
// clock through the public API.
func TestWindowedDuration(t *testing.T) {
	now := time.Unix(2000, 0)
	hh, err := buildWindowed(windowConfig{
		config: config{
			Eps: 0.1, Phi: 0.3, Delta: 0.05, Universe: 1 << 20,
			StreamLength: 1000, Seed: 5, Algorithm: AlgorithmSimple,
		},
		WindowDuration: 10 * time.Second,
		Clock:          func() time.Time { return now },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		hh.Insert(1)
	}
	now = now.Add(4 * time.Second)
	for i := 0; i < 300; i++ {
		hh.Insert(2)
	}
	rep := hh.Report()
	if len(rep) != 2 {
		t.Fatalf("both regimes inside the window: %v", rep)
	}
	now = now.Add(8 * time.Second) // id 1 is now 12s old, id 2 8s
	rep = hh.Report()
	if len(rep) != 1 || rep[0].Item != 2 {
		t.Fatalf("id 1 should have aged out: %v", rep)
	}
	if st := hh.WindowStats(); st.Retired != 300 {
		t.Fatalf("expected 300 retired: %+v", st)
	}
}

// TestWindowedDurationRoundTrip checkpoints a duration window (real
// clock, window far longer than the test) and checks report identity.
func TestWindowedDurationRoundTrip(t *testing.T) {
	hh, err := buildWindowed(windowConfig{
		config: config{
			Eps: 0.1, Phi: 0.3, Delta: 0.05, Universe: 1 << 20,
			StreamLength: 1000, Seed: 5, Algorithm: AlgorithmSimple,
		},
		WindowDuration: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 900; i++ {
		hh.Insert(uint64(i % 3))
	}
	blob, err := hh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := unmarshalWindowed(blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hh.Report(), restored.Report()) {
		t.Error("duration-window round-trip changed the report")
	}
}

// TestWindowedMergeRejected: sliding-window states take no part in the
// merge tier — a windowed engine is not a Merger, and its checkpoint
// offered to a plain engine is refused with ErrIncompatibleMerge,
// leaving both usable.
func TestWindowedMergeRejected(t *testing.T) {
	mk := func(extra ...Option) HeavyHitters {
		hh, err := New(append([]Option{
			WithEps(0.05), WithPhi(0.2), WithDelta(0.05), WithUniverse(1 << 20), WithSeed(11),
			WithAlgorithm(AlgorithmSimple), // exact at this tiny window scale
			WithShards(2),
		}, extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { hh.Close() })
		return hh
	}
	windowed, plain := mk(WithCountWindow(100, 0)), mk(WithStreamLength(1000))
	if _, ok := windowed.(Merger); ok {
		t.Fatal("a windowed engine claims the Merger capability")
	}
	for i := 0; i < 500; i++ {
		if err := windowed.Insert(uint64(i % 5)); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := windowed.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.(Merger).Merge(blob); !errors.Is(err, ErrIncompatibleMerge) {
		t.Fatalf("windowed blob into plain engine: got %v, want ErrIncompatibleMerge", err)
	}
	if got := windowed.Report(); len(got) == 0 {
		t.Fatal("windowed engine must stay usable")
	}
}

// TestWindowShardedRace exercises report-during-retirement: concurrent
// producers keep rotating and retiring buckets while reports, stats,
// and checkpoints run. Run with -race.
func TestWindowShardedRace(t *testing.T) {
	sh, err := newShardedSolver(shardedConfig{
		config: config{
			Eps: 0.05, Phi: 0.2, Delta: 0.05, Universe: 1 << 20, Seed: 13,
		},
		Shards: 4, Window: 500, WindowBuckets: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			batch := make([]Item, 256)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				for j := range batch {
					batch[j] = uint64((p*1000 + i + j) % 50)
				}
				if err := sh.InsertBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	for i := 0; i < 20; i++ {
		sh.Report()
		if _, ok := sh.WindowStats(); !ok {
			t.Error("WindowStats must be available")
		}
		if _, err := sh.MarshalBinary(); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	sh.Report() // post-close barrier runs inline
}
