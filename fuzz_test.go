package l1hh

// Fuzz targets: decoding hostile bytes must return errors, never panic or
// over-allocate. `go test` exercises the seed corpus; `go test -fuzz`
// explores further.

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mg"
	"repro/internal/minimum"
	"repro/internal/rng"
	"repro/internal/shard"
	"repro/internal/voting"
	"repro/internal/wire"
)

// seedLegacyCheckpoints adds the committed PR 3/4-era golden blobs for
// the given tags to the corpus, so the fuzzers always explore from both
// codec versions (the live-built seeds are current-version; these are
// the frozen v1 layouts old deployments still hold).
func seedLegacyCheckpoints(f *testing.F, files ...string) {
	f.Helper()
	for _, name := range files {
		blob, err := os.ReadFile(filepath.Join("testdata", "checkpoints", name))
		if err != nil {
			f.Fatalf("legacy seed %s missing: %v", name, err)
		}
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
	}
}

// seedBlobs produces one valid encoding per solver so the fuzzer starts
// from decodable inputs.
func seedBlobs(tb testing.TB) [][]byte {
	tb.Helper()
	var blobs [][]byte

	sl, err := core.NewSimpleList(rng.New(1), core.Config{
		Eps: 0.1, Phi: 0.3, Delta: 0.1, M: 1000, N: 1000,
	})
	if err != nil {
		tb.Fatal(err)
	}
	for i := uint64(0); i < 500; i++ {
		sl.Insert(i % 37)
	}
	b1, _ := sl.MarshalBinary()
	blobs = append(blobs, append([]byte{tagSimple}, b1...))

	op, err := core.NewOptimal(rng.New(2), core.Config{
		Eps: 0.1, Phi: 0.3, Delta: 0.1, M: 1000, N: 1000,
	})
	if err != nil {
		tb.Fatal(err)
	}
	for i := uint64(0); i < 500; i++ {
		op.Insert(i % 37)
	}
	b2, _ := op.MarshalBinary()
	blobs = append(blobs, append([]byte{tagOptimal}, b2...))
	return blobs
}

func FuzzUnmarshalListHeavyHitters(f *testing.F) {
	for _, b := range seedBlobs(f) {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{1})
	f.Add([]byte{2, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		hh, err := unmarshalSerial(data)
		if err != nil {
			return
		}
		// A successfully decoded solver must be usable.
		hh.Insert(7)
		_ = hh.Report()
		_ = hh.ModelBits()
	})
}

// FuzzUnmarshalWindowed feeds hostile bytes to the windowed decode
// path: the tag-4 frame, the window snapshot (geometry, bucket
// metadata) and the nested per-bucket solver encodings. Hostile bytes
// must error — never panic, never allocate proportionally to a claimed
// geometry — and a successful decode must yield a usable window. The
// seeds are an Algorithm 1 window, an Algorithm 2 window and the
// per-shard windows of its two-shard twin, each fed past several
// seals, so the sealed Algorithm 2 frames a Report decodes get mutated
// too.
func FuzzUnmarshalWindowed(f *testing.F) {
	mk := func() *windowedSolver {
		hh, err := buildWindowed(windowConfig{
			config: config{
				Eps: 0.1, Phi: 0.3, Delta: 0.1, Universe: 1 << 16,
				Algorithm: AlgorithmSimple, Seed: 5,
			},
			Window: 64, WindowBuckets: 4,
		})
		if err != nil {
			panic(err)
		}
		return hh
	}
	hh := mk()
	for i := uint64(0); i < 300; i++ {
		hh.Insert(i % 11)
	}
	if blob, err := hh.MarshalBinary(); err == nil {
		f.Add(blob)
		f.Add(blob[:len(blob)/2])
	}
	for _, blob := range algo2WindowSeeds(f) {
		frames := [][]byte{blob}
		if blob[0] == tagShardedWindowed {
			_, snap, err := parseSharded(blob)
			if err != nil {
				f.Fatal(err)
			}
			if frames, err = shard.Blobs(snap); err != nil {
				f.Fatal(err)
			}
		}
		for _, frame := range frames {
			f.Add(frame)
			f.Add(frame[:len(frame)/2])
		}
	}
	seedLegacyCheckpoints(f, "tag4_windowed_v1.bin")
	f.Add([]byte{4})
	f.Add([]byte{4, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		w, err := unmarshalWindowed(data, nil)
		if err != nil {
			return
		}
		w.Insert(7)
		_ = w.Report()
		_ = w.Len()
		_ = w.WindowStats()
	})
}

// algo2WindowSeeds returns the checkpoints of an Algorithm 2 count
// window (tag 4) and of its two-shard twin (tag 5), each fed 500 items
// of a 64-item window in 16-item buckets, so each shard's window has
// sealed and retired several buckets.
func algo2WindowSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var blobs [][]byte
	for _, extra := range [][]Option{nil, {WithShards(2)}} {
		opts := append([]Option{
			WithEps(0.1), WithPhi(0.3), WithDelta(0.1), WithUniverse(1 << 16), WithSeed(5),
			WithAlgorithm(AlgorithmOptimal), WithCountWindow(64, 4),
		}, extra...)
		hh, err := New(opts...)
		if err != nil {
			tb.Fatal(err)
		}
		for i := uint64(0); i < 500; i++ {
			if err := hh.Insert(i % 37); err != nil {
				tb.Fatal(err)
			}
		}
		blob, err := hh.MarshalBinary()
		if err != nil {
			tb.Fatal(err)
		}
		hh.Close()
		blobs = append(blobs, blob)
	}
	return blobs
}

// anySeedBlobs produces one valid checkpoint per container tag (1–5 and
// the problem tags 7–10), plus a tag 1 blob whose Algorithm 2 T2 holds
// escaped cells and Algorithm 2 twins of the tag 4 and 5 windows
// (algo2WindowSeeds), so FuzzUnmarshalAny starts from decodable
// encodings of every kind.
func anySeedBlobs(tb testing.TB) [][]byte {
	tb.Helper()
	base := []Option{
		WithEps(0.1), WithPhi(0.3), WithDelta(0.1),
		WithUniverse(1 << 16), WithSeed(5),
	}
	var blobs [][]byte
	for _, extra := range [][]Option{
		{WithStreamLength(1000), WithAlgorithm(AlgorithmOptimal)},               // tag 1
		{WithStreamLength(1000), WithAlgorithm(AlgorithmSimple)},                // tag 2
		{WithStreamLength(1000), WithAlgorithm(AlgorithmSimple), WithShards(2)}, // tag 3
		{WithAlgorithm(AlgorithmSimple), WithCountWindow(64, 4)},                // tag 4
		{WithAlgorithm(AlgorithmSimple), WithShards(2), WithCountWindow(64, 4)}, // tag 5
	} {
		hh, err := New(append(append([]Option{}, base...), extra...)...)
		if err != nil {
			tb.Fatal(err)
		}
		for i := uint64(0); i < 500; i++ {
			if err := hh.Insert(i % 37); err != nil {
				tb.Fatal(err)
			}
		}
		blob, err := hh.MarshalBinary()
		if err != nil {
			tb.Fatal(err)
		}
		hh.Close()
		blobs = append(blobs, blob)
	}

	// The tag 1 engine again, fed 6,000 arrivals of one id: at sample
	// rate 1 they lift the id's T2 cell past 255 in every repetition, so
	// the cells escape their byte rows.
	hot, err := New(append(append([]Option{}, base...),
		WithStreamLength(1000), WithAlgorithm(AlgorithmOptimal))...)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 6000; i++ {
		if err := hot.Insert(7); err != nil {
			tb.Fatal(err)
		}
	}
	blob, err := hot.MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	hot.Close()
	blobs = append(blobs, blob)
	blobs = append(blobs, algo2WindowSeeds(tb)...)

	// The problem engines (tags 7–10): voting ingests rankings, extremes
	// ingest bounded items — both through the same problem-keyed front
	// door the heavy-hitters engines use.
	for _, problem := range []Problem{BordaProblem, MaximinProblem} {
		hh, err := New(WithProblem(problem), WithCandidates(4),
			WithEps(0.1), WithPhi(0.3), WithDelta(0.1),
			WithStreamLength(1000), WithSeed(5))
		if err != nil {
			tb.Fatal(err)
		}
		v := hh.(Voter)
		for i := 0; i < 200; i++ {
			if err := v.Vote(Ranking{uint32(i % 4), uint32((i + 1) % 4), uint32((i + 2) % 4), uint32((i + 3) % 4)}); err != nil {
				tb.Fatal(err)
			}
		}
		blob, err := hh.MarshalBinary()
		if err != nil {
			tb.Fatal(err)
		}
		hh.Close()
		blobs = append(blobs, blob)
	}
	for _, problem := range []Problem{MinFrequencyProblem, MaxFrequencyProblem} {
		hh, err := New(WithProblem(problem),
			WithEps(0.1), WithDelta(0.1), WithUniverse(64),
			WithStreamLength(1000), WithSeed(5))
		if err != nil {
			tb.Fatal(err)
		}
		for i := uint64(0); i < 500; i++ {
			if err := hh.Insert(i % 37); err != nil {
				tb.Fatal(err)
			}
		}
		blob, err := hh.MarshalBinary()
		if err != nil {
			tb.Fatal(err)
		}
		hh.Close()
		blobs = append(blobs, blob)
	}
	return blobs
}

// FuzzUnmarshalAny feeds hostile bytes to the universal tag-dispatched
// decoder: every container tag (1–5, plus the problem tags 7–10) routes
// through one front door, so one fuzz target covers the whole codec
// surface. Hostile bytes must error — never panic, never allocate
// proportionally to claimed geometry — and a successful decode must
// yield a usable solver in its own currency: items for heavy hitters,
// rankings for the voting engines, bounded items for extremes.
func FuzzUnmarshalAny(f *testing.F) {
	for _, b := range anySeedBlobs(f) {
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	seedLegacyCheckpoints(f, "tag4_windowed_v1.bin", "tag5_sharded_windowed_v1.bin",
		"tag1_serial_optimal_v2.bin")
	f.Add([]byte{})
	for tag := byte(0); tag <= 10; tag++ {
		f.Add([]byte{tag})
		f.Add([]byte{tag, 0, 0, 0, 0, 0, 0, 0, 0})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		hh, err := Unmarshal(data)
		if err != nil {
			return
		}
		switch v := hh.(type) {
		case Voter:
			// Items are the wrong currency here: Insert must refuse with
			// the redirect sentinel, and a well-formed ballot must land.
			if err := hh.Insert(7); !errors.Is(err, ErrNotItems) {
				t.Fatalf("voting engine Insert = %v, want ErrNotItems", err)
			}
			n := v.Candidates()
			if n <= 0 || n > 1<<20 {
				t.Fatalf("restored voter claims %d candidates", n)
			}
			rk := make(Ranking, n)
			for i := range rk {
				rk[i] = uint32(i)
			}
			if err := v.Vote(rk); err != nil {
				t.Fatalf("restored voter refused a valid ballot: %v", err)
			}
			_ = v.Scores()
			if _, s := v.Winner(); s < 0 {
				t.Fatalf("negative winner score %g", s)
			}
		case Extremes:
			// Extremes engines bound inserts to their universe; item 0 is
			// always inside it.
			if err := hh.Insert(0); err != nil {
				t.Fatalf("restored extremes solver refused item 0: %v", err)
			}
			for _, q := range []func() (ItemEstimate, float64, error){v.MinItem, v.MaxItem} {
				if _, _, err := q(); err != nil &&
					!errors.Is(err, ErrWrongExtreme) && !errors.Is(err, ErrEmptyStream) {
					t.Fatalf("extremes query: %v", err)
				}
			}
		default:
			if err := hh.Insert(7); err != nil {
				t.Fatalf("restored solver refused insert: %v", err)
			}
		}
		_ = hh.Report()
		_ = hh.Stats()
		_ = hh.Len()
		if w, ok := hh.(Windower); ok {
			_ = w.WindowStats()
		}
		hh.Close()
	})
}

// mergeReceivers are the three Merger kinds, each built with the
// options of the anySeedBlobs checkpoint of its own tag, so that
// checkpoint folds into it.
var mergeReceivers = []struct {
	name string
	tag  byte
	opts []Option
}{
	{"serial", tagOptimal, []Option{WithEps(0.1), WithPhi(0.3), WithDelta(0.1),
		WithUniverse(1 << 16), WithSeed(5), WithStreamLength(1000), WithAlgorithm(AlgorithmOptimal)}},
	{"sharded", tagSharded, []Option{WithEps(0.1), WithPhi(0.3), WithDelta(0.1),
		WithUniverse(1 << 16), WithSeed(5), WithStreamLength(1000), WithAlgorithm(AlgorithmSimple), WithShards(2)}},
	{"borda", tagBorda, []Option{WithProblem(BordaProblem), WithCandidates(4),
		WithEps(0.1), WithPhi(0.3), WithDelta(0.1), WithStreamLength(1000), WithSeed(5)}},
}

// poolSeedBlob is a valid one-tenant pool checkpoint (tag 6).
func poolSeedBlob(tb testing.TB) []byte {
	tb.Helper()
	p, err := NewPool(WithTenantDefaults(mergeReceivers[0].opts...))
	if err != nil {
		tb.Fatal(err)
	}
	defer p.Close()
	if err := p.InsertBatch("seed", []Item{1, 2, 3, 1}); err != nil {
		tb.Fatal(err)
	}
	blob, err := p.MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// fuzzMergeTargets builds one live receiver of each Merger kind per
// process for FuzzMergeCheckpoint to merge hostile blobs into.
// Successful merges mutate them, which is fine — the property under
// test is "error, never panic", on targets that stay usable.
var fuzzMergeTargets = sync.OnceValue(func() []HeavyHitters {
	var out []HeavyHitters
	for _, rc := range mergeReceivers {
		hh, err := New(rc.opts...)
		if err != nil {
			panic(err)
		}
		out = append(out, hh)
	}
	return out
})

// FuzzMergeCheckpoint feeds corrupt/truncated checkpoint containers to
// the merge decode paths of every Merger kind — serial, sharded
// (container frame + shard snapshot + per-shard solver decode) and
// Borda — through both CheckMerge and Merge, to the sharded restore
// path, and to the merge of the bytes into their own restore. All must
// error on hostile bytes, never panic, and a decodable-but-incompatible
// checkpoint must be rejected without corrupting the live engine.
func FuzzMergeCheckpoint(f *testing.F) {
	for _, b := range anySeedBlobs(f) {
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	f.Add(poolSeedBlob(f))
	// A tag 2 frame whose T1 width is 2⁶⁴−1: it matches no live target,
	// only its own restore.
	golden, err := buildGoldenHH(goldenOpts(AlgorithmSimple)...)()
	if err != nil {
		f.Fatal(err)
	}
	wide := parseSimpleFrame(f, golden)
	wide.tableLen = math.MaxUint64
	f.Add(wide.bytes())
	f.Add([]byte{})
	f.Add([]byte{3})          // bare sharded tag
	f.Add([]byte{3, 0, 0, 0}) // tag + garbage frame
	f.Add([]byte{7})          // bare Borda tag
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		for _, target := range fuzzMergeTargets() {
			m := target.(Merger)
			_ = m.CheckMerge(data) // must error or succeed, never panic
			_ = m.Merge(data)
			_ = target.Report() // and leave the engine answering
		}
		// The same bytes through the restore path must also never panic.
		if hh, err := restoreSharded(data); err == nil {
			hh.Insert(7)
			_ = hh.Report()
			hh.Close()
		}
		// The targets above are valid engines, so a hostile frame whose
		// shape matches only itself never reaches their fold. Merging the
		// bytes into their own restore does.
		if hh, err := Unmarshal(data); err == nil {
			if m, ok := hh.(Merger); ok {
				_ = m.CheckMerge(data)
				_ = m.Merge(data)
				_ = hh.Report()
			}
			hh.Close()
		}
	})
}

func FuzzMGUnmarshal(f *testing.F) {
	s := mg.New(5, 100)
	for i := uint64(0); i < 100; i++ {
		s.Insert(i % 11)
	}
	blob, _ := s.MarshalBinary()
	f.Add(blob)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		var out mg.Summary
		if err := out.UnmarshalBinary(data); err != nil {
			return
		}
		out.Insert(3)
		_ = out.Candidates()
	})
}

func FuzzMinimumUnmarshal(f *testing.F) {
	s, err := minimum.New(rng.New(3), minimum.Config{
		Eps: 0.2, Delta: 0.1, M: 100, N: 8,
	})
	if err != nil {
		f.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		s.Insert(i % 8)
	}
	blob, _ := s.MarshalBinary()
	f.Add(blob)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		var out minimum.Solver
		if err := out.UnmarshalBinary(data); err != nil {
			return
		}
		_ = out.Report()
	})
}

func FuzzBordaUnmarshal(f *testing.F) {
	b, err := voting.NewBordaSketch(rng.New(4), voting.BordaConfig{
		N: 4, Eps: 0.1, Delta: 0.1, M: 100,
	})
	if err != nil {
		f.Fatal(err)
	}
	b.Insert(voting.Ranking{0, 1, 2, 3})
	blob, _ := b.MarshalBinary()
	f.Add(blob)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		var out voting.BordaSketch
		if err := out.UnmarshalBinary(data); err != nil {
			return
		}
		_ = out.Scores()
	})
}

func FuzzWireReader(f *testing.F) {
	w := wire.NewWriter()
	w.U64(5)
	w.U64s([]uint64{1, 2, 3})
	w.F64(1.5)
	w.Map(map[uint64]uint64{1: 2})
	f.Add(w.Bytes())
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := wire.NewReader(data)
		_ = r.U64()
		_ = r.U64s()
		_ = r.F64()
		_ = r.Map()
		_ = r.I64()
		_ = r.Err()
	})
}

func FuzzRankingValidate(f *testing.F) {
	f.Add([]byte{0, 1, 2}, 3)
	f.Add([]byte{2, 2, 1}, 3)
	f.Fuzz(func(t *testing.T, perm []byte, n int) {
		if n < 0 || n > 1<<10 || len(perm) > 1<<10 {
			return
		}
		rk := make(voting.Ranking, len(perm))
		for i, b := range perm {
			rk[i] = uint32(b)
		}
		_ = rk.Validate(n) // must never panic
	})
}
