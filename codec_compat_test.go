package l1hh

// Backward-compatibility suite for the universal checkpoint codec:
// golden checkpoint bytes for every container tag are committed under
// testdata/checkpoints and must keep restoring through the universal
// Unmarshal; fresh builds through New must reproduce them byte for byte
// where the build is deterministic; and a restore→re-marshal cycle must
// return the bytes it was given. Regenerate a golden file, for example
// tag 1's, with
//
//	go test -run 'TestGoldenCheckpoints/tag1_' -update-golden .
//
// only when its codec version legitimately moves, and keep the old file
// under a versioned name that a legacy test decodes: the whole point of
// the files is that old bytes keep working. A bare -update-golden also
// rewrites the restore-only tag 3 and tag 5 files, and BENCH_ingest.json
// (see TestIngestLedger).

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/hash"
	"repro/internal/sample"
	"repro/internal/shard"
	"repro/internal/window"
	"repro/internal/wire"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata/checkpoints golden files, and BENCH_ingest.json from TestIngestLedger's run")

// goldenClock pins windowed bucket timestamps so regenerated golden
// files do not churn on wall-clock noise.
var goldenClock = func() time.Time { return time.Unix(1_700_000_000, 0) }

// goldenCase builds one checkpoint through the front door, plus the
// assertions its restore must satisfy.
type goldenCase struct {
	file  string
	tag   byte
	build func() ([]byte, error)
	// opts are the New options of the heavy-hitters cases (tags 1–5),
	// which build through buildGoldenHH; nil for the problem engines.
	opts     []Option
	wantLen  uint64
	windower bool
	sharder  bool
	// problem marks the engines built through the problem-keyed front
	// door (tags 7–10); their assertions run in the problem's own
	// currency (ballots / bounded items) instead of the planted-item
	// heavy-hitters checks.
	problem Problem
}

// goldenStream is the fixed stream every golden engine ingests: id 7 on
// even positions, rotating light ids elsewhere.
func goldenStream(n int) []Item {
	out := make([]Item, n)
	for i := range out {
		if i%2 == 0 {
			out[i] = 7
		} else {
			out[i] = uint64(100 + i%31)
		}
	}
	return out
}

// goldenBallots is the fixed election every golden voting engine
// counts: ballot i is the identity ranking rotated by i mod n, so
// candidate 0 leads both the Borda and maximin tallies.
func goldenBallots(m, n int) []Ranking {
	out := make([]Ranking, m)
	for i := range out {
		rk := make(Ranking, n)
		rot := i % n
		if i%3 == 0 {
			rot = 0 // candidate 0 tops every third ballot
		}
		for j := range rk {
			rk[j] = uint32((j + rot) % n)
		}
		out[i] = rk
	}
	return out
}

// goldenOpts is the problem statement every heavy-hitters golden engine
// shares.
func goldenOpts(algo Algorithm) []Option {
	return []Option{
		WithEps(0.05), WithPhi(0.2), WithDelta(0.05),
		WithStreamLength(4000), WithUniverse(1 << 20),
		WithAlgorithm(algo), WithSeed(42),
	}
}

// buildGoldenHH checkpoints a heavy-hitters engine built from opts over
// the fixed golden stream.
func buildGoldenHH(opts ...Option) func() ([]byte, error) {
	return func() ([]byte, error) {
		hh, err := New(opts...)
		if err != nil {
			return nil, err
		}
		defer hh.Close()
		if err := hh.InsertBatch(goldenStream(2000)); err != nil {
			return nil, err
		}
		return hh.MarshalBinary()
	}
}

func goldenCases() []goldenCase {
	const n = 2000
	simple := func(extra ...Option) []Option { return append(goldenOpts(AlgorithmSimple), extra...) }
	cases := []goldenCase{
		{file: "tag1_serial_optimal.bin", tag: tagOptimal, wantLen: n,
			opts: goldenOpts(AlgorithmOptimal)},
		{file: "tag2_serial_simple.bin", tag: tagSimple, wantLen: n,
			opts: simple()},
		{file: "tag3_sharded.bin", tag: tagSharded, wantLen: n, sharder: true,
			opts: simple(WithShards(2))},
		// W=512, B=4 → bucket cap 128; after 2000 inserts the ring holds 4
		// sealed buckets (512) plus 80 live items = 592 covered (dropping
		// another bucket would fall below W).
		{file: "tag4_windowed.bin", tag: tagWindowed, wantLen: 592, windower: true,
			opts: simple(WithCountWindow(512, 4), WithClock(goldenClock))},
		// Per-shard window ⌈512/2⌉=256, cap 64; hash partitioning makes
		// the exact covered mass shard-dependent, so wantLen is left 0
		// (checked as Len == covered instead).
		{file: "tag5_sharded_windowed.bin", tag: tagShardedWindowed, windower: true, sharder: true,
			opts: simple(WithShards(2), WithCountWindow(512, 4), WithClock(goldenClock))},
		{file: "tag7_borda.bin", tag: tagBorda, wantLen: n, problem: BordaProblem,
			build: buildGoldenVoter(BordaProblem, n)},
		{file: "tag8_maximin.bin", tag: tagMaximin, wantLen: n, problem: MaximinProblem,
			build: buildGoldenVoter(MaximinProblem, n)},
		{file: "tag9_minimum.bin", tag: tagMinimum, wantLen: n, problem: MinFrequencyProblem,
			build: buildGoldenExtremes(MinFrequencyProblem, n)},
		{file: "tag10_maximum.bin", tag: tagMaximum, wantLen: n, problem: MaxFrequencyProblem,
			build: buildGoldenExtremes(MaxFrequencyProblem, n)},
	}
	for i := range cases {
		if cases[i].opts != nil {
			cases[i].build = buildGoldenHH(cases[i].opts...)
		}
	}
	return cases
}

// buildGoldenVoter checkpoints a tag 7/8 voting engine over the fixed
// golden election, through the problem-keyed front door.
func buildGoldenVoter(problem Problem, m int) func() ([]byte, error) {
	return func() ([]byte, error) {
		hh, err := New(WithProblem(problem), WithCandidates(8),
			WithEps(0.05), WithPhi(0.2), WithDelta(0.05),
			WithStreamLength(4000), WithSeed(42))
		if err != nil {
			return nil, err
		}
		v := hh.(Voter)
		for _, rk := range goldenBallots(m, 8) {
			if err := v.Vote(rk); err != nil {
				return nil, err
			}
		}
		return hh.MarshalBinary()
	}
}

// buildGoldenExtremes checkpoints a tag 9/10 extremes engine over the
// golden stream folded into a 64-item universe (the ε-Minimum machinery
// indexes by item id, so the golden universe stays small).
func buildGoldenExtremes(problem Problem, m int) func() ([]byte, error) {
	return func() ([]byte, error) {
		hh, err := New(WithProblem(problem),
			WithEps(0.05), WithDelta(0.05),
			WithStreamLength(4000), WithUniverse(64), WithSeed(42))
		if err != nil {
			return nil, err
		}
		for _, x := range goldenStream(m) {
			if err := hh.Insert(x % 64); err != nil {
				return nil, err
			}
		}
		return hh.MarshalBinary()
	}
}

// TestGoldenCheckpoints: the committed PR 1–3 era checkpoint bytes
// restore through the universal Unmarshal with the right tag, length,
// parameters and capability set — the on-disk compatibility contract.
func TestGoldenCheckpoints(t *testing.T) {
	dir := filepath.Join("testdata", "checkpoints")
	if *updateGolden {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, gc := range goldenCases() {
		t.Run(gc.file, func(t *testing.T) {
			path := filepath.Join(dir, gc.file)
			if *updateGolden {
				blob, err := gc.build()
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, blob, 0o644); err != nil {
					t.Fatal(err)
				}
				// Mirror the blob into FuzzUnmarshalAny's committed corpus
				// so the fuzzer always starts from every container tag.
				corpusDir := filepath.Join("testdata", "fuzz", "FuzzUnmarshalAny")
				if err := os.MkdirAll(corpusDir, 0o755); err != nil {
					t.Fatal(err)
				}
				entry := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", blob)
				seed := filepath.Join(corpusDir, "seed_"+gc.file)
				if err := os.WriteFile(seed, []byte(entry), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("golden file missing (regenerate with -update-golden): %v", err)
			}
			if len(blob) == 0 || blob[0] != gc.tag {
				t.Fatalf("golden file tag = %d, want %d", blob[0], gc.tag)
			}
			hh, err := Unmarshal(blob)
			if err != nil {
				t.Fatalf("Unmarshal: %v", err)
			}
			defer hh.Close()
			if gc.wantLen > 0 && hh.Len() != gc.wantLen {
				t.Fatalf("restored Len = %d, want %d", hh.Len(), gc.wantLen)
			}
			wantPhi := 0.2
			if gc.problem == MinFrequencyProblem || gc.problem == MaxFrequencyProblem {
				wantPhi = 0 // extremes solvers have no heaviness threshold
			}
			if hh.Eps() != 0.05 || hh.Phi() != wantPhi {
				t.Fatalf("restored (eps,phi) = (%g,%g), want (0.05,%g)", hh.Eps(), hh.Phi(), wantPhi)
			}
			if _, ok := hh.(Windower); ok != gc.windower {
				t.Errorf("Windower = %v, want %v", ok, gc.windower)
			}
			if _, ok := hh.(Sharder); ok != gc.sharder {
				t.Errorf("Sharder = %v, want %v", ok, gc.sharder)
			}
			st := hh.Stats()
			if st.Len != hh.Len() || st.ModelBits <= 0 {
				t.Fatalf("restored Stats incoherent: %+v", st)
			}
			checkGoldenRestore(t, gc, hh)
			if gc.tag == tagWindowed {
				checkRetiredBudget(t, blob)
			}
		})
	}
}

// checkRetiredBudget pins the tag 4 frame's retired per-insert budget, the
// varint at byte 31 right after the algorithm. Windows built with a budget
// wrote it there; the decoder ignores it, so such a frame reports what the
// golden reports and re-marshals to the golden's bytes, with 0 there.
func checkRetiredBudget(t *testing.T, golden []byte) {
	t.Helper()
	if golden[31] != 0 {
		t.Fatalf("byte 31 of the tag 4 golden is %d, not the zero budget field", golden[31])
	}
	budgeted := slices.Clone(golden)
	budgeted[31] = 1
	want, err := Unmarshal(golden, WithClock(goldenClock))
	if err != nil {
		t.Fatal(err)
	}
	defer want.Close()
	got, err := Unmarshal(budgeted, WithClock(goldenClock))
	if err != nil {
		t.Fatalf("Unmarshal with budget 1: %v", err)
	}
	defer got.Close()
	if fmt.Sprint(got.Report()) != fmt.Sprint(want.Report()) {
		t.Fatalf("budget 1 restores a different report:\n%v\n%v", got.Report(), want.Report())
	}
	again, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, golden) {
		t.Fatal("a frame with budget 1 does not re-marshal to the golden bytes")
	}
}

// checkGoldenRestore asserts a restored golden engine answers — and
// stays usable — in its problem's own currency.
func checkGoldenRestore(t *testing.T, gc goldenCase, hh HeavyHitters) {
	t.Helper()
	switch gc.problem {
	case BordaProblem, MaximinProblem:
		v, ok := hh.(Voter)
		if !ok {
			t.Fatalf("restored %s engine lost the Voter capability", gc.problem)
		}
		if c, _ := v.Winner(); c != 0 {
			t.Fatalf("golden election winner = %d, want the planted candidate 0", c)
		}
		if err := hh.Insert(7); !errors.Is(err, ErrNotItems) {
			t.Fatalf("Insert on a voting engine = %v, want ErrNotItems", err)
		}
		if err := v.Vote(Ranking{0, 1, 2, 3, 4, 5, 6, 7}); err != nil {
			t.Fatalf("Vote on restored voter: %v", err)
		}
	case MinFrequencyProblem, MaxFrequencyProblem:
		ex, ok := hh.(Extremes)
		if !ok {
			t.Fatalf("restored %s engine lost the Extremes capability", gc.problem)
		}
		right, wrong := ex.MinItem, ex.MaxItem
		if gc.problem == MaxFrequencyProblem {
			right, wrong = ex.MaxItem, ex.MinItem
		}
		if _, _, err := right(); err != nil {
			t.Fatalf("extremes query on restored solver: %v", err)
		}
		if _, _, err := wrong(); !errors.Is(err, ErrWrongExtreme) {
			t.Fatalf("wrong-side query = %v, want ErrWrongExtreme", err)
		}
		if err := hh.Insert(7); err != nil {
			t.Fatalf("in-universe Insert on restored solver: %v", err)
		}
		if err := hh.Insert(1 << 40); err == nil {
			t.Fatal("out-of-universe Insert succeeded on restored extremes solver")
		}
	default:
		rep := hh.Report()
		found := false
		for _, r := range rep {
			if r.Item == 7 {
				found = true
			}
		}
		if !found {
			t.Fatalf("planted heavy item 7 missing from restored report %v", rep)
		}
		// The restored solver must remain usable.
		if err := hh.Insert(7); err != nil {
			t.Fatalf("Insert on restored solver: %v", err)
		}
	}
}

// TestLegacyWindowCheckpoints: the committed PR 3/4-era windowed golden
// bytes — whose nested window snapshots are version 1, with no arrival
// stamps, and whose tag-5 shard container predates the accepted-items
// field — must keep decoding through the universal Unmarshal. They
// restore with share accounting reset: the extrapolated fold stays
// configured (Extrapolated=true on tag 5) but has no usable spans, so
// it reports with legacy weights, and ShareSkew reads 1 until fresh
// traffic re-establishes the accounting.
func TestLegacyWindowCheckpoints(t *testing.T) {
	for _, tc := range []struct {
		file    string
		tag     byte
		sharder bool
	}{
		{file: "tag4_windowed_v1.bin", tag: tagWindowed},
		{file: "tag5_sharded_windowed_v1.bin", tag: tagShardedWindowed, sharder: true},
	} {
		t.Run(tc.file, func(t *testing.T) {
			blob, err := os.ReadFile(filepath.Join("testdata", "checkpoints", tc.file))
			if err != nil {
				t.Fatalf("legacy golden file missing (it is frozen history — never regenerate it): %v", err)
			}
			if blob[0] != tc.tag {
				t.Fatalf("tag = %d, want %d", blob[0], tc.tag)
			}
			hh, err := Unmarshal(blob)
			if err != nil {
				t.Fatalf("PR 3/4-era checkpoint no longer decodes: %v", err)
			}
			defer hh.Close()
			win, ok := hh.(Windower)
			if !ok {
				t.Fatal("restored solver lost the Windower capability")
			}
			st := win.WindowStats()
			if st.ShareSkew != 1 {
				t.Errorf("reset share accounting must read ShareSkew 1, got %g", st.ShareSkew)
			}
			if st.Extrapolated != tc.sharder {
				t.Errorf("Extrapolated = %v, want %v (extrapolation is config, the reset only clears the spans)",
					st.Extrapolated, tc.sharder)
			}
			if _, ok := hh.(Sharder); ok != tc.sharder {
				t.Fatalf("Sharder = %v, want %v", ok, tc.sharder)
			}
			rep := hh.Report()
			found := false
			for _, r := range rep {
				if r.Item == 7 {
					found = true
				}
			}
			if !found {
				t.Fatalf("planted heavy item 7 missing from legacy restore: %v", rep)
			}
			// The restored solver must keep ingesting and re-checkpoint
			// in the current (v2) codec.
			if err := hh.Insert(7); err != nil {
				t.Fatal(err)
			}
			if _, err := hh.MarshalBinary(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLegacyOptimalCheckpoint: the tag 1 golden written before marshal
// v3, whose Algorithm 2 frame is v2 (every T2 cell a uvarint, every T3
// bucket a row), keeps decoding through the universal Unmarshal into
// the state the current golden holds: it re-marshals to the v3 golden
// byte for byte.
func TestLegacyOptimalCheckpoint(t *testing.T) {
	dir := filepath.Join("testdata", "checkpoints")
	blob, err := os.ReadFile(filepath.Join(dir, "tag1_serial_optimal_v2.bin"))
	if err != nil {
		t.Fatalf("legacy golden file missing (it is frozen history — never regenerate it): %v", err)
	}
	want, err := os.ReadFile(filepath.Join(dir, "tag1_serial_optimal.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if blob[0] != tagOptimal {
		t.Fatalf("tag = %d, want %d", blob[0], tagOptimal)
	}
	hh, err := Unmarshal(blob)
	if err != nil {
		t.Fatalf("v2 checkpoint no longer decodes: %v", err)
	}
	defer hh.Close()
	if hh.Len() != 2000 {
		t.Fatalf("restored Len = %d, want 2000", hh.Len())
	}
	got, err := hh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("v2 golden re-marshals to %d bytes, not the %d-byte v3 golden", len(got), len(want))
	}
	checkGoldenRestore(t, goldenCase{}, hh)
}

// TestCheckpointInterchange: bytes built through New restore via the
// universal Unmarshal for every container tag, a restore→re-marshal
// cycle reproduces them exactly (tags 1–6 must stay byte-identical
// across refactors; the pool row lives in its own subtest below), and
// a second restore of the re-marshalled bytes reports identically.
func TestCheckpointInterchange(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.file, func(t *testing.T) {
			built, err := gc.build()
			if err != nil {
				t.Fatal(err)
			}
			restored, err := Unmarshal(built)
			if err != nil {
				t.Fatalf("Unmarshal(built bytes): %v", err)
			}
			defer restored.Close()
			again, err := restored.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, built) {
				t.Fatalf("restore→re-marshal changed the bytes: %d in, %d out", len(built), len(again))
			}
			second, err := Unmarshal(again)
			if err != nil {
				t.Fatalf("Unmarshal(round-trip bytes): %v", err)
			}
			defer second.Close()
			if fmt.Sprint(restored.Report()) != fmt.Sprint(second.Report()) {
				t.Fatalf("round-trip restores diverge:\n%v\n%v", restored.Report(), second.Report())
			}
		})
	}

	t.Run("tag6_pool", func(t *testing.T) {
		defaults := WithTenantDefaults(
			WithEps(0.05), WithPhi(0.2), WithDelta(0.05),
			WithStreamLength(4000), WithUniverse(1<<20), WithSeed(42))
		p, err := NewPool(defaults)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if err := p.InsertBatch("golden", goldenStream(2000)); err != nil {
			t.Fatal(err)
		}
		blob, err := p.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if blob[0] != tagPool {
			t.Fatalf("pool tag = %d, want %d", blob[0], tagPool)
		}
		restored, err := UnmarshalPool(blob, defaults)
		if err != nil {
			t.Fatal(err)
		}
		defer restored.Close()
		again, err := restored.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, blob) {
			t.Fatalf("pool restore→re-marshal changed the bytes: %d in, %d out", len(blob), len(again))
		}
	})
}

// TestNewReproducesGoldenBytes: a fresh build through New reproduces
// the committed golden file byte for byte, so the files pin what the
// front door writes today and not only what it still reads. Two tags
// stay restore-only (TestGoldenCheckpoints still decodes them):
//   - tag 3: the committed file was written before each shard's engine
//     declared the global stream length (shardEngineConfig), so it
//     declares 2,000 per shard where a fresh build declares 4,000;
//     everything else in the frame is equal.
//   - tag 5: its window buckets carry the wall-clock stamps of the run
//     that wrote it, and no clock reproduces them.
func TestNewReproducesGoldenBytes(t *testing.T) {
	for _, gc := range goldenCases() {
		if gc.tag == tagSharded || gc.tag == tagShardedWindowed {
			continue
		}
		t.Run(gc.file, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "checkpoints", gc.file))
			if err != nil {
				t.Fatal(err)
			}
			got, err := gc.build()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("fresh build (%d bytes) differs from the committed golden file (%d bytes)", len(got), len(want))
			}
		})
	}
}

// TestDefaultProblemBytesUnchanged: spelling out the default problem —
// WithProblem(HeavyHittersProblem) — changes nothing about what New
// builds, for every heavy-hitters container shape (byte-identical
// checkpoints).
func TestDefaultProblemBytesUnchanged(t *testing.T) {
	for _, gc := range goldenCases() {
		if gc.problem != HeavyHittersProblem {
			continue // problem tags have no implicit-default twin
		}
		implicit, err := gc.build()
		if err != nil {
			t.Fatal(err)
		}
		opts := append(gc.opts[:len(gc.opts):len(gc.opts)], WithProblem(HeavyHittersProblem))
		explicit, err := buildGoldenHH(opts...)()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(implicit, explicit) {
			t.Errorf("%s: WithProblem(HeavyHittersProblem) changed the bytes (%d vs %d)",
				gc.file, len(implicit), len(explicit))
		}
	}
}

// TestUnmarshalRejectsGarbage: the universal decoder errors (never
// panics) on the malformed-prefix family the per-type decoders already
// reject.
func TestUnmarshalRejectsGarbage(t *testing.T) {
	for _, blob := range [][]byte{
		nil,
		{},
		{0},
		{1},
		{2, 0, 0},
		{3, 1, 2, 3},
		{4, 0xFF},
		{5},
		{7},
		{8, 0xFF},
		{9, 0, 0},
		{10},
		{99, 1, 2, 3},
	} {
		if _, err := Unmarshal(blob); err == nil {
			t.Errorf("Unmarshal(%v) succeeded on garbage", blob)
		}
	}
}

// simpleFrame is a tag 2 checkpoint split into the fields after its
// head (the tag, version, config, sampler and hash bytes), so a test
// can rewrite them one at a time.
type simpleFrame struct {
	head                         []byte
	tableLen                     uint64
	t1, t2                       map[uint64]uint64
	t2Cap, s, offered, hashRange uint64
}

// parseSimpleFrame splits blob, a valid tag 2 checkpoint.
func parseSimpleFrame(t testing.TB, blob []byte) *simpleFrame {
	t.Helper()
	r := wire.NewReader(blob[1:])
	w := wire.NewWriter()
	w.U64(r.U64()) // version
	// The config: ε, ϕ, δ, then m and n, then the seven Tuning constants.
	for i := 0; i < 12; i++ {
		if i == 3 || i == 4 {
			w.U64(r.U64())
		} else {
			w.F64(r.F64())
		}
	}
	sample.DecodeSkip(r).Encode(w)
	hash.DecodeFunc(r).Encode(w)
	f := &simpleFrame{head: append([]byte{blob[0]}, w.Bytes()...)}
	f.tableLen = r.U64()
	f.t1, f.t2 = r.Map(), r.Map()
	f.t2Cap, f.s, f.offered, f.hashRange = r.U64(), r.U64(), r.U64(), r.U64()
	if !r.Done() {
		t.Fatalf("tag 2 frame did not parse: %v", r.Err())
	}
	return f
}

func (f *simpleFrame) bytes() []byte {
	w := wire.NewWriter()
	w.U64(f.tableLen)
	w.Map(f.t1)
	w.Map(f.t2)
	for _, v := range []uint64{f.t2Cap, f.s, f.offered, f.hashRange} {
		w.U64(v)
	}
	return append(slices.Clone(f.head), w.Bytes()...)
}

// TestUnmarshalRefusesHostileSimpleFrame: a tag 2 checkpoint restores
// only if a build could have written it. Each row rewrites one field of
// a real checkpoint; the untouched row must restore, re-marshal to the
// same bytes and merge into its own restore. A T1 width of 2⁶⁴−1 once
// restored, and merging those bytes into their own restore panicked in
// the Misra-Gries reduction; a T2 capacity of 2⁶⁴−1 reached a negative
// slice index the same way.
func TestUnmarshalRefusesHostileSimpleFrame(t *testing.T) {
	blob, err := buildGoldenHH(goldenOpts(AlgorithmSimple)...)()
	if err != nil {
		t.Fatal(err)
	}
	// keyOf returns the smallest key of m for which in(key) holds.
	keyOf := func(m map[uint64]uint64, in func(uint64) bool) uint64 {
		keys := slices.Sorted(maps.Keys(m))
		for _, k := range keys {
			if in(k) {
				return k
			}
		}
		t.Fatal("golden frame lacks the key the row needs")
		return 0
	}
	rows := []struct {
		name string
		edit func(f *simpleFrame)
	}{
		{"untouched", func(*simpleFrame) {}},
		{"T1 width 0", func(f *simpleFrame) { f.tableLen = 0 }},
		{"T1 width 2⁶⁴−1", func(f *simpleFrame) { f.tableLen = math.MaxUint64 }},
		{"more T1 counters than its width", func(f *simpleFrame) { f.tableLen = uint64(len(f.t1)) - 1 }},
		{"zero T1 counter", func(f *simpleFrame) {
			f.t1[keyOf(f.t1, func(k uint64) bool { _, inT2 := f.t2[k]; return !inT2 })] = 0
		}},
		{"T2 capacity 0", func(f *simpleFrame) { f.t2Cap = 0 }},
		{"T2 capacity 2⁶⁴−1", func(f *simpleFrame) { f.t2Cap = math.MaxUint64 }},
		{"more T2 entries than its capacity", func(f *simpleFrame) { f.t2Cap = uint64(len(f.t2)) - 1 }},
		{"T2 key absent from T1", func(f *simpleFrame) {
			delete(f.t1, keyOf(f.t2, func(uint64) bool { return true }))
		}},
		{"ε out of range", func(f *simpleFrame) {
			// ε is the first config field, after the tag and the
			// one-byte version.
			binary.LittleEndian.PutUint64(f.head[2:], math.Float64bits(2))
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			f := parseSimpleFrame(t, blob)
			row.edit(f)
			data := f.bytes()
			hh, err := Unmarshal(data)
			if row.name != "untouched" {
				if err == nil {
					hh.Close()
					t.Fatal("Unmarshal restored a state no build produces")
				}
				live, err := New(goldenOpts(AlgorithmSimple)...)
				if err != nil {
					t.Fatal(err)
				}
				defer live.Close()
				if live.(Merger).CheckMerge(data) == nil || live.(Merger).Merge(data) == nil {
					t.Fatal("a live engine merged a state no build produces")
				}
				return
			}
			if err != nil {
				t.Fatalf("the untouched frame: %v", err)
			}
			defer hh.Close()
			if again, _ := hh.MarshalBinary(); !bytes.Equal(again, blob) {
				t.Fatal("the untouched frame did not parse back to its own bytes")
			}
			if err := hh.(Merger).Merge(data); err != nil {
				t.Fatalf("merging the untouched frame into its restore: %v", err)
			}
		})
	}
}

// TestUnmarshalRefusesHostileOptimalFrame: a tag 1 checkpoint restores
// only with a Config a build could have written. Each row rewrites one
// config field of a real checkpoint; the untouched row must restore,
// re-marshal to the same bytes and merge into its own restore. ε = 2,
// −1 or NaN once restored, and the engine answered Eps() with it.
func TestUnmarshalRefusesHostileOptimalFrame(t *testing.T) {
	blob, err := buildGoldenHH(goldenOpts(AlgorithmOptimal)...)()
	if err != nil {
		t.Fatal(err)
	}
	// The tag and the one-byte version precede the config: ε, ϕ and δ as
	// fixed 8-byte floats, then m and n as uvarints.
	float := func(at int, v float64) func([]byte) []byte {
		return func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[at:], math.Float64bits(v))
			return b
		}
	}
	count := func(which int, v uint64) func([]byte) []byte {
		return func(b []byte) []byte {
			var mn [2]uint64
			at := 26
			for i := range mn {
				x, k := binary.Uvarint(b[at:])
				mn[i], at = x, at+k
			}
			mn[which] = v
			out := binary.AppendUvarint(binary.AppendUvarint(slices.Clone(b[:26]), mn[0]), mn[1])
			return append(out, b[at:]...)
		}
	}
	rows := []struct {
		name string
		edit func([]byte) []byte
	}{
		{"untouched", func(b []byte) []byte { return b }},
		{"ε = 2", float(2, 2)},
		{"ε = −1", float(2, -1)},
		{"ε = NaN", float(2, math.NaN())},
		{"ϕ below ε", float(10, 0.01)},
		{"ϕ = 2", float(10, 2)},
		{"δ = 0", float(18, 0)},
		{"δ = NaN", float(18, math.NaN())},
		{"m = 0", count(0, 0)},
		{"n = 0", count(1, 0)},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			data := row.edit(slices.Clone(blob))
			hh, err := Unmarshal(data)
			if row.name != "untouched" {
				if err == nil {
					eps := hh.Eps()
					hh.Close()
					t.Fatalf("Unmarshal restored a config no build produces (Eps() = %v)", eps)
				}
				live, err := New(goldenOpts(AlgorithmOptimal)...)
				if err != nil {
					t.Fatal(err)
				}
				defer live.Close()
				if live.(Merger).CheckMerge(data) == nil || live.(Merger).Merge(data) == nil {
					t.Fatal("a live engine merged a config no build produces")
				}
				return
			}
			if err != nil {
				t.Fatalf("the untouched frame: %v", err)
			}
			defer hh.Close()
			if again, _ := hh.MarshalBinary(); !bytes.Equal(again, blob) {
				t.Fatal("the untouched frame did not parse back to its own bytes")
			}
			if err := hh.(Merger).Merge(data); err != nil {
				t.Fatalf("merging the untouched frame into its restore: %v", err)
			}
		})
	}
}

// TestUnmarshalRefusesCorruptSealedBucket: a window keeps each sealed
// bucket as its checkpoint frame and decodes it again only to fold a
// report, so Unmarshal must decode every bucket of a tag 4 or tag 5
// checkpoint and refuse a bad one then, not leave it to the first
// Report (whose failure the front door would hide behind the per-bucket
// union). Each row rewrites the oldest sealed bucket of one shard's
// window: its frame truncated, or its frame swapped for the open
// bucket's, whose engine has seen fewer items than the recorded count.
// The untouched rows put the frame back as it was and must restore.
func TestUnmarshalRefusesCorruptSealedBucket(t *testing.T) {
	// splice replaces the one length-prefixed occurrence of old in outer.
	splice := func(t *testing.T, outer, old, repl []byte) []byte {
		t.Helper()
		prefixed := binary.AppendUvarint(nil, uint64(len(old)))
		prefixed = append(prefixed, old...)
		if n := bytes.Count(outer, prefixed); n != 1 {
			t.Fatalf("the nested frame occurs %d times in its container", n)
		}
		at := bytes.Index(outer, prefixed)
		out := binary.AppendUvarint(slices.Clone(outer[:at]), uint64(len(repl)))
		out = append(out, repl...)
		return append(out, outer[at+len(prefixed):]...)
	}
	// rewrite returns the checkpoint with the oldest sealed bucket of one
	// window replaced by edit's output, given that bucket's frame and the
	// open bucket's. chain runs from the checkpoint to the window's tag 4
	// frame, each nested in the one before it; every length prefix on
	// the way is rewritten.
	rewrite := func(t *testing.T, chain [][]byte, edit func(sealed, open []byte) []byte) []byte {
		t.Helper()
		_, snap, err := parseWindowed(chain[len(chain)-1])
		if err != nil {
			t.Fatal(err)
		}
		frames, err := window.Blobs(snap)
		if err != nil {
			t.Fatal(err)
		}
		if len(frames) < 3 {
			t.Fatalf("the window holds %d buckets; the row needs sealed ones", len(frames))
		}
		levels := append(slices.Clip(chain), snap)
		old, repl := frames[0], edit(frames[0], frames[len(frames)-1])
		for i := len(levels) - 1; i >= 0; i-- {
			old, repl = levels[i], splice(t, levels[i], old, repl)
		}
		return repl
	}
	edits := []struct {
		name string
		edit func(sealed, open []byte) []byte
	}{
		{"untouched", func(sealed, _ []byte) []byte { return sealed }},
		{"truncated frame", func(sealed, _ []byte) []byte { return sealed[:len(sealed)/2] }},
		{"count disagrees with frame", func(_, open []byte) []byte { return open }},
	}
	for _, algo := range []struct {
		name string
		algo Algorithm
	}{{"algo1", AlgorithmSimple}, {"algo2", AlgorithmOptimal}} {
		for _, shards := range []int{1, 2} {
			opts := append(goldenOpts(algo.algo), WithCountWindow(512, 4), WithClock(goldenClock))
			if shards > 1 {
				opts = append(opts, WithShards(shards))
			}
			blob, err := buildGoldenHH(opts...)()
			if err != nil {
				t.Fatal(err)
			}
			// The window of the first shard, or the whole frame at tag 4.
			chain := [][]byte{blob}
			if shards > 1 {
				_, snap, err := parseSharded(blob)
				if err != nil {
					t.Fatal(err)
				}
				shardFrames, err := shard.Blobs(snap)
				if err != nil {
					t.Fatal(err)
				}
				chain = append(chain, snap, shardFrames[0])
			}
			for _, e := range edits {
				t.Run(fmt.Sprintf("tag%d/%s/%s", blob[0], algo.name, e.name), func(t *testing.T) {
					data := rewrite(t, chain, e.edit)
					hh, err := Unmarshal(data)
					if e.name == "untouched" {
						if err != nil {
							t.Fatalf("the untouched checkpoint: %v", err)
						}
						hh.Close()
						return
					}
					if err == nil {
						hh.Close()
						t.Fatal("Unmarshal restored a window whose sealed bucket is corrupt")
					}
					if !strings.Contains(err.Error(), "bucket 0/") {
						t.Fatalf("Unmarshal refused the checkpoint, but not for its sealed bucket: %v", err)
					}
				})
			}
		}
	}
}

// TestUnmarshalUnknownTagError: an unrecognized tag names the valid tag
// range and the one decoder that lives outside it (UnmarshalPool), so
// an operator holding a mystery blob knows where to send it next.
func TestUnmarshalUnknownTagError(t *testing.T) {
	_, err := Unmarshal([]byte{42, 0, 0, 0})
	if err == nil {
		t.Fatal("Unmarshal accepted tag 42")
	}
	for _, want := range []string{"tag 42", "UnmarshalPool"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-tag error %q does not mention %q", err, want)
		}
	}
	// The pool tag itself redirects by name.
	if _, err := Unmarshal([]byte{6, 0, 0}); err == nil ||
		!strings.Contains(err.Error(), "UnmarshalPool") {
		t.Errorf("pool-tag error %v does not redirect to UnmarshalPool", err)
	}
}
