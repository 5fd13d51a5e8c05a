package l1hh

// Tests for the unified front door: New's construction scenarios and
// capability sets, the Insert error semantics (closed solvers refuse
// instead of silently dropping), the unified Stats snapshot, and the
// option validation rules.

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// frontDoorScenarios enumerates every construction scenario New must
// cover, with the capability set each one promises.
type frontDoorScenario struct {
	name     string
	opts     []Option
	merger   bool
	windower bool
	flusher  bool
	pacable  bool
	sharder  bool
}

func frontDoorScenarios() []frontDoorScenario {
	base := []Option{
		WithEps(0.05), WithPhi(0.2), WithDelta(0.05),
		WithUniverse(1 << 20), WithAlgorithm(AlgorithmSimple), WithSeed(7),
	}
	with := func(extra ...Option) []Option { return append(append([]Option{}, base...), extra...) }
	return []frontDoorScenario{
		{name: "serial known-m", opts: with(WithStreamLength(4000)), merger: true},
		{name: "serial unknown-m", opts: with()},
		{name: "paced", opts: with(WithStreamLength(4000), WithPacedBudget(1)),
			merger: true, flusher: true, pacable: true},
		{name: "sharded", opts: with(WithStreamLength(4000), WithShards(2)),
			merger: true, flusher: true, sharder: true},
		{name: "windowed", opts: with(WithCountWindow(512, 4)), windower: true},
		{name: "sharded windowed", opts: with(WithShards(2), WithCountWindow(512, 4)),
			windower: true, flusher: true, sharder: true},
	}
}

// feedScenario pushes a deterministic skewed stream (id 7 at 50%).
func feedScenario(t *testing.T, hh HeavyHitters, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		x := uint64(1000 + i)
		if i%2 == 0 {
			x = 7
		}
		if err := hh.Insert(x); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
}

func TestNewScenarioCapabilities(t *testing.T) {
	for _, sc := range frontDoorScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			hh, err := New(sc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer hh.Close()
			if _, ok := hh.(Merger); ok != sc.merger {
				t.Errorf("Merger capability = %v, want %v", ok, sc.merger)
			}
			if _, ok := hh.(Windower); ok != sc.windower {
				t.Errorf("Windower capability = %v, want %v", ok, sc.windower)
			}
			if _, ok := hh.(Flusher); ok != sc.flusher {
				t.Errorf("Flusher capability = %v, want %v", ok, sc.flusher)
			}
			if _, ok := hh.(Pacable); ok != sc.pacable {
				t.Errorf("Pacable capability = %v, want %v", ok, sc.pacable)
			}
			if _, ok := hh.(Sharder); ok != sc.sharder {
				t.Errorf("Sharder capability = %v, want %v", ok, sc.sharder)
			}

			feedScenario(t, hh, 2000)
			if f, ok := hh.(Flusher); ok {
				f.Flush()
			}
			rep := hh.Report()
			found := false
			for _, r := range rep {
				if r.Item == 7 {
					found = true
				}
			}
			if !found {
				t.Fatalf("heavy item 7 missing from report %v", rep)
			}
			if hh.Eps() != 0.05 || hh.Phi() != 0.2 {
				t.Errorf("(eps, phi) = (%g, %g), want (0.05, 0.2)", hh.Eps(), hh.Phi())
			}
			if hh.ModelBits() <= 0 {
				t.Error("ModelBits must be positive")
			}
		})
	}
}

// TestInsertAfterCloseErrors is the regression test for the Insert
// error-semantics unification: closed solvers of EVERY construction
// scenario refuse inserts with ErrClosed instead of silently dropping
// them, while reports keep answering.
func TestInsertAfterCloseErrors(t *testing.T) {
	for _, sc := range frontDoorScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			hh, err := New(sc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			feedScenario(t, hh, 1000)
			lenBefore := hh.Len()
			if err := hh.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if err := hh.Insert(7); !errors.Is(err, ErrClosed) {
				t.Fatalf("Insert after Close = %v, want ErrClosed", err)
			}
			if err := hh.InsertBatch([]Item{7, 8}); !errors.Is(err, ErrClosed) {
				t.Fatalf("InsertBatch after Close = %v, want ErrClosed", err)
			}
			if got := hh.Len(); got != lenBefore {
				t.Fatalf("refused inserts changed Len: %d -> %d", lenBefore, got)
			}
			if rep := hh.Report(); len(rep) == 0 {
				t.Fatal("closed solver stopped reporting")
			}
			// Close is idempotent.
			if err := hh.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
		})
	}
}

// TestStatsSnapshot: the unified Stats carries the same numbers the
// interface methods report, for every scenario.
func TestStatsSnapshot(t *testing.T) {
	for _, sc := range frontDoorScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			hh, err := New(sc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer hh.Close()
			feedScenario(t, hh, 2000)
			if f, ok := hh.(Flusher); ok {
				f.Flush()
			}
			st := hh.Stats()
			if st.Eps != hh.Eps() || st.Phi != hh.Phi() {
				t.Errorf("Stats (eps,phi) = (%g,%g), methods say (%g,%g)", st.Eps, st.Phi, hh.Eps(), hh.Phi())
			}
			if st.Len != hh.Len() {
				t.Errorf("Stats.Len = %d, Len() = %d", st.Len, hh.Len())
			}
			if st.Items < st.Len && st.Window == nil {
				t.Errorf("Stats.Items = %d below Len %d", st.Items, st.Len)
			}
			if st.ModelBits <= 0 {
				t.Error("Stats.ModelBits must be positive")
			}
			if sc.sharder {
				if st.Shards != 2 {
					t.Errorf("Stats.Shards = %d, want 2", st.Shards)
				}
				if len(st.QueueDepths) != 2 {
					t.Errorf("Stats.QueueDepths = %v, want 2 entries", st.QueueDepths)
				}
			} else {
				if st.Shards != 1 {
					t.Errorf("Stats.Shards = %d, want 1", st.Shards)
				}
				if st.QueueDepths != nil {
					t.Errorf("Stats.QueueDepths = %v, want nil", st.QueueDepths)
				}
			}
			if sc.windower {
				if st.Window == nil {
					t.Fatal("windowed Stats lacks Window")
				}
				w := hh.(Windower)
				if st.Window.Covered != hh.Len() {
					t.Errorf("Window.Covered = %d, Len() = %d", st.Window.Covered, hh.Len())
				}
				if ws := w.WindowStats(); ws.Total != st.Window.Total {
					t.Errorf("WindowStats.Total = %d, Stats.Window.Total = %d", ws.Total, st.Window.Total)
				}
				if n, d, buckets := w.Window(); n == 0 && d == 0 || buckets <= 0 {
					t.Errorf("Window() geometry = (%d, %s, %d)", n, d, buckets)
				}
				if st.Window.Total != 2000 {
					t.Errorf("Window.Total = %d, want 2000", st.Window.Total)
				}
			} else if st.Window != nil {
				t.Errorf("unwindowed Stats carries Window: %+v", st.Window)
			}
		})
	}
}

// TestPacableBudget: the paced adapter echoes its budget and flushes on
// demand.
func TestPacableBudget(t *testing.T) {
	hh, err := New(
		WithEps(0.05), WithPhi(0.2), WithStreamLength(4000),
		WithUniverse(1<<20), WithAlgorithm(AlgorithmSimple), WithSeed(7),
		WithPacedBudget(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	p := hh.(Pacable)
	if p.PacedBudget() != 3 {
		t.Fatalf("PacedBudget = %d, want 3", p.PacedBudget())
	}
	feedScenario(t, hh, 2000)
	hh.(Flusher).Flush()
	if len(hh.Report()) == 0 {
		t.Fatal("paced solver reports nothing")
	}
}

// TestMergerCapability: same-options solvers fold via checkpoint bytes,
// CheckMerge does not mutate, and cross-kind folds refuse with
// ErrIncompatibleMerge.
func TestMergerCapability(t *testing.T) {
	opts := []Option{
		WithEps(0.05), WithPhi(0.2), WithStreamLength(4000),
		WithUniverse(1 << 20), WithAlgorithm(AlgorithmSimple), WithSeed(7),
	}
	for _, tc := range []struct {
		name  string
		extra []Option
	}{
		{name: "serial"},
		{name: "sharded", extra: []Option{WithShards(2)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			all := append(append([]Option{}, opts...), tc.extra...)
			a, err := New(all...)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			b, err := New(all...)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			for i := 0; i < 1000; i++ {
				a.Insert(7)
				b.Insert(7)
				b.Insert(uint64(100 + i%11))
			}
			cp, err := b.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			m := a.(Merger)
			if err := m.CheckMerge(cp); err != nil {
				t.Fatalf("CheckMerge: %v", err)
			}
			if got := a.Len(); got != 1000 {
				t.Fatalf("CheckMerge mutated: Len = %d, want 1000", got)
			}
			if err := m.Merge(cp); err != nil {
				t.Fatalf("Merge: %v", err)
			}
			if got := a.Len(); got != 3000 {
				t.Fatalf("merged Len = %d, want 3000", got)
			}
			rep := a.Report()
			if len(rep) == 0 || rep[0].Item != 7 {
				t.Fatalf("merged report %v, want item 7 on top", rep)
			}
		})
	}

	t.Run("cross-kind refuses", func(t *testing.T) {
		serial, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := New(append(append([]Option{}, opts...), WithShards(2))...)
		if err != nil {
			t.Fatal(err)
		}
		defer sharded.Close()
		shardedCP, err := sharded.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := serial.(Merger).Merge(shardedCP); !errors.Is(err, ErrIncompatibleMerge) {
			t.Fatalf("serial Merge(sharded cp) = %v, want ErrIncompatibleMerge", err)
		}
		serialCP, err := serial.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := sharded.(Merger).Merge(serialCP); !errors.Is(err, ErrIncompatibleMerge) {
			t.Fatalf("sharded Merge(serial cp) = %v, want ErrIncompatibleMerge", err)
		}
	})

	t.Run("mismatched seed refuses without mutating", func(t *testing.T) {
		a, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		reseeded := append(append([]Option{}, opts...), WithSeed(99))
		b, err := New(reseeded...)
		if err != nil {
			t.Fatal(err)
		}
		a.Insert(1)
		b.Insert(2)
		cp, _ := b.MarshalBinary()
		m := a.(Merger)
		if err := m.CheckMerge(cp); !errors.Is(err, ErrIncompatibleMerge) {
			t.Fatalf("CheckMerge = %v, want ErrIncompatibleMerge", err)
		}
		if err := m.Merge(cp); !errors.Is(err, ErrIncompatibleMerge) {
			t.Fatalf("Merge = %v, want ErrIncompatibleMerge", err)
		}
		if a.Len() != 1 {
			t.Fatalf("refused merge mutated the target: Len = %d", a.Len())
		}
	})
}

// TestUnknownLengthSolver: no WithStreamLength → Theorem 7 machinery,
// not serializable, not a Merger.
func TestUnknownLengthSolver(t *testing.T) {
	hh, err := New(WithEps(0.05), WithPhi(0.2), WithUniverse(1<<20), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	feedScenario(t, hh, 5000)
	if _, err := hh.MarshalBinary(); err == nil {
		t.Fatal("unknown-length solver serialized")
	}
	if _, ok := hh.(Merger); ok {
		t.Fatal("unknown-length solver claims Merger")
	}
	if len(hh.Report()) == 0 {
		t.Fatal("no report")
	}
}

// TestWithClock drives a time window deterministically through an
// injected clock, including across a checkpoint restore with WithClock.
func TestWithClock(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	opts := []Option{
		WithEps(0.05), WithPhi(0.2), WithUniverse(1 << 20),
		WithAlgorithm(AlgorithmSimple), WithSeed(7),
		WithStreamLength(1000), WithTimeWindow(time.Minute, 4), WithClock(clock),
	}
	hh, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		hh.Insert(1)
	}
	now = now.Add(2 * time.Minute) // everything ages out
	for i := 0; i < 10; i++ {
		hh.Insert(2)
	}
	rep := hh.Report()
	for _, r := range rep {
		if r.Item == 1 {
			t.Fatalf("retired item 1 still reported: %v", rep)
		}
	}
	st := hh.(Windower).WindowStats()
	if st.Retired == 0 {
		t.Fatalf("nothing retired after the clock jump: %+v", st)
	}

	// Restore on the same fake clock: the window must not retire the
	// live mass against the real wall clock.
	blob, err := hh.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Unmarshal(blob, WithClock(clock))
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != hh.Len() {
		t.Fatalf("restored Len = %d, want %d", restored.Len(), hh.Len())
	}
	if _, ok := restored.(Windower); !ok {
		t.Fatal("restored time window lost the Windower capability")
	}
}

// TestNewValidation: structurally impossible option combinations error
// with actionable messages.
func TestNewValidation(t *testing.T) {
	base := []Option{WithEps(0.05), WithPhi(0.2)}
	cases := []struct {
		name string
		opts []Option
	}{
		{"missing eps", []Option{WithPhi(0.2)}},
		{"missing phi", []Option{WithEps(0.05)}},
		{"both windows", append(base, WithCountWindow(100, 0), WithTimeWindow(time.Second, 0), WithStreamLength(100))},
		{"clock without window", append(base, WithClock(time.Now))},
		{"queue depth without shards", append(base, WithQueueDepth(8))},
		{"max batch without shards", append(base, WithMaxBatch(8))},
		{"paced without length", append(base, WithPacedBudget(1))},
		{"time window without length", append(base, WithTimeWindow(time.Second, 0))},
		{"zero count window", append(base, WithCountWindow(0, 0))},
		{"negative shards", append(base, WithShards(-1))},
		{"zero stream length", append(base, WithStreamLength(0))},
		{"nil option", append(base, nil)},
		{"nil clock", append(base, WithClock(nil))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.opts...); err == nil {
				t.Fatal("New accepted an invalid combination")
			}
		})
	}
}

// TestUnmarshalOptionValidation: Unmarshal accepts runtime options only,
// and only where the container can use them.
func TestUnmarshalOptionValidation(t *testing.T) {
	serial, err := New(WithEps(0.05), WithPhi(0.2), WithStreamLength(1000),
		WithUniverse(1<<20), WithAlgorithm(AlgorithmSimple), WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	serialCP, err := serial.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := New(WithEps(0.05), WithPhi(0.2), WithStreamLength(1000),
		WithUniverse(1<<20), WithAlgorithm(AlgorithmSimple), WithSeed(7), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	shardedCP, err := sharded.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := Unmarshal(serialCP, WithEps(0.1)); err == nil {
		t.Fatal("Unmarshal accepted a problem-parameter option")
	}
	if _, err := Unmarshal(serialCP, WithQueueDepth(4)); err == nil {
		t.Fatal("Unmarshal accepted WithQueueDepth on a serial checkpoint")
	}
	if _, err := Unmarshal(shardedCP, WithClock(time.Now)); err == nil {
		t.Fatal("Unmarshal accepted WithClock on an unwindowed sharded checkpoint")
	}

	// A paced sharded engine's checkpoint (tag 3, pacing not serialized)
	// re-applies per-shard pacing via the same runtime option serial
	// restores use; reports must match the unpaced restore exactly.
	pacedSharded, err := Unmarshal(shardedCP, WithPacedBudget(1))
	if err != nil {
		t.Fatalf("Unmarshal(sharded, paced): %v", err)
	}
	defer pacedSharded.Close()
	plainSharded, err := Unmarshal(shardedCP)
	if err != nil {
		t.Fatal(err)
	}
	defer plainSharded.Close()
	for i := 0; i < 500; i++ {
		pacedSharded.Insert(uint64(i % 13))
		plainSharded.Insert(uint64(i % 13))
	}
	if fmt.Sprint(pacedSharded.Report()) != fmt.Sprint(plainSharded.Report()) {
		t.Fatal("paced sharded restore diverges from unpaced restore")
	}

	// Windowed sharded frames serialize their own budget: the runtime
	// option stays rejected there.
	shardedWin, err := New(WithEps(0.05), WithPhi(0.2), WithUniverse(1<<20),
		WithAlgorithm(AlgorithmSimple), WithSeed(7), WithShards(2), WithCountWindow(128, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer shardedWin.Close()
	winCP, err := shardedWin.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(winCP, WithPacedBudget(1)); err == nil {
		t.Fatal("Unmarshal accepted WithPacedBudget on a windowed sharded checkpoint")
	}

	// The valid runtime pairings work.
	hh, err := Unmarshal(shardedCP, WithQueueDepth(4), WithMaxBatch(128))
	if err != nil {
		t.Fatalf("Unmarshal(sharded, queue opts): %v", err)
	}
	hh.Close()
	paced, err := Unmarshal(serialCP, WithPacedBudget(2))
	if err != nil {
		t.Fatalf("Unmarshal(serial, paced): %v", err)
	}
	if p, ok := paced.(Pacable); !ok || p.PacedBudget() != 2 {
		t.Fatal("restored serial solver did not re-apply pacing")
	}
}

// TestUnmarshalScenarios: every serializable construction scenario
// round-trips through the universal Unmarshal with its capability set
// and report intact.
func TestUnmarshalScenarios(t *testing.T) {
	for _, sc := range frontDoorScenarios() {
		if sc.name == "serial unknown-m" {
			continue // not serializable
		}
		t.Run(sc.name, func(t *testing.T) {
			hh, err := New(sc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer hh.Close()
			feedScenario(t, hh, 2000)
			blob, err := hh.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			restored, err := Unmarshal(blob)
			if err != nil {
				t.Fatal(err)
			}
			defer restored.Close()
			if fmt.Sprint(restored.Report()) != fmt.Sprint(hh.Report()) {
				t.Fatal("restored report diverges")
			}
			if restored.Len() != hh.Len() {
				t.Fatalf("restored Len = %d, want %d", restored.Len(), hh.Len())
			}
			if restored.Eps() != hh.Eps() || restored.Phi() != hh.Phi() {
				t.Fatalf("restored (eps,phi) = (%g,%g), want (%g,%g)",
					restored.Eps(), restored.Phi(), hh.Eps(), hh.Phi())
			}
			if _, ok := restored.(Windower); ok != sc.windower {
				t.Errorf("restored Windower = %v, want %v", ok, sc.windower)
			}
			if _, ok := restored.(Sharder); ok != sc.sharder {
				t.Errorf("restored Sharder = %v, want %v", ok, sc.sharder)
			}
			// Pacing is runtime tuning: restored solvers are unpaced unless
			// WithPacedBudget is passed, so Merger is the only capability
			// that must survive serialization by itself.
			if sc.name != "paced" {
				if _, ok := restored.(Merger); ok != sc.merger {
					t.Errorf("restored Merger = %v, want %v", ok, sc.merger)
				}
			}
		})
	}
}
