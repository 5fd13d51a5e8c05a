package exact

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func feed(xs ...uint64) *Counter {
	c := New()
	for _, x := range xs {
		c.Insert(x)
	}
	return c
}

func TestBasicCounts(t *testing.T) {
	c := feed(1, 2, 2, 3, 3, 3)
	if c.Total() != 6 || c.Distinct() != 3 {
		t.Fatalf("total %d distinct %d", c.Total(), c.Distinct())
	}
	if c.Freq(3) != 3 || c.Freq(1) != 1 || c.Freq(99) != 0 {
		t.Fatal("freq wrong")
	}
}

func TestMerge(t *testing.T) {
	a := feed(1, 2, 2)
	b := feed(2, 3)
	a.Merge(b)
	if a.Total() != 5 || a.Distinct() != 3 {
		t.Fatalf("merged total %d distinct %d", a.Total(), a.Distinct())
	}
	if a.Freq(1) != 1 || a.Freq(2) != 3 || a.Freq(3) != 1 {
		t.Fatalf("merged freqs: 1→%d 2→%d 3→%d", a.Freq(1), a.Freq(2), a.Freq(3))
	}
	// The argument is untouched.
	if b.Total() != 2 || b.Freq(2) != 1 {
		t.Fatal("merge mutated its argument")
	}
}

func TestItemsSorted(t *testing.T) {
	c := feed(5, 1, 3, 1)
	items := c.Items()
	if len(items) != 3 || items[0] != 1 || items[1] != 3 || items[2] != 5 {
		t.Fatalf("items = %v", items)
	}
}

func TestHeavyHitters(t *testing.T) {
	c := feed(1, 1, 1, 2, 2, 3)
	hh := c.HeavyHitters(2)
	if len(hh) != 2 || hh[0] != 1 || hh[1] != 2 {
		t.Fatalf("heavy hitters = %v", hh)
	}
	if len(c.HeavyHitters(100)) != 0 {
		t.Fatal("threshold above all freqs must return nothing")
	}
}

func TestMax(t *testing.T) {
	c := feed(4, 4, 9, 9, 9)
	item, f, ok := c.Max()
	if !ok || item != 9 || f != 3 {
		t.Fatalf("max = (%d,%d,%v)", item, f, ok)
	}
	if _, _, ok := New().Max(); ok {
		t.Fatal("empty counter claims a max")
	}
}

func TestMaxTieBreaksLowId(t *testing.T) {
	c := feed(7, 7, 2, 2)
	item, _, _ := c.Max()
	if item != 2 {
		t.Fatalf("tie should pick low id, got %d", item)
	}
}

func TestMinOver(t *testing.T) {
	c := feed(0, 0, 1)
	universe := []uint64{0, 1, 2}
	item, f := c.MinOver(universe)
	if item != 2 || f != 0 {
		t.Fatalf("min = (%d,%d), want (2,0)", item, f)
	}
}

func TestMinOverTie(t *testing.T) {
	c := feed(0, 1)
	item, f := c.MinOver([]uint64{0, 1})
	if item != 0 || f != 1 {
		t.Fatalf("min tie = (%d,%d), want (0,1)", item, f)
	}
}

func TestMinOverPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New().MinOver(nil)
}

func TestTotalMatchesSumQuick(t *testing.T) {
	err := quick.Check(func(xs []uint64) bool {
		c := New()
		for _, x := range xs {
			c.Insert(x % 50)
		}
		var sum uint64
		for _, x := range c.Items() {
			sum += c.Freq(x)
		}
		return sum == c.Total() && c.Total() == uint64(len(xs))
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestAudit(t *testing.T) {
	// m = 100 at ε = 0.05, ϕ = 0.1: ϕ·m = 10 and (ϕ−ε)·m = ε·m = 5. Items
	// 1 and 2 are ϕ-heavy, item 3 sits between the two lines, where either
	// decision is allowed, and ids 100–141 are singletons.
	stream := slices.Repeat([]uint64{1}, 40)
	stream = append(stream, slices.Repeat([]uint64{2}, 12)...)
	stream = append(stream, slices.Repeat([]uint64{3}, 6)...)
	for x := uint64(100); len(stream) < 100; x++ {
		stream = append(stream, x)
	}
	truth := Count(stream)
	for _, tc := range []struct {
		name            string
		rep             []Estimate
		missed, off, fp []uint64
		worst           float64
	}{
		{"clean", []Estimate{{1, 41}, {2, 12}, {3, 6}}, nil, nil, nil, 0.2},
		{"missed", []Estimate{{1, 40}}, []uint64{2}, nil, nil, 0},
		{"off", []Estimate{{1, 46}, {2, 12}, {3, 12}}, nil, []uint64{1, 3}, nil, 1.2},
		{"false", []Estimate{{1, 40}, {2, 12}, {100, 1}}, nil, nil, []uint64{100}, 0},
	} {
		v := Audit(truth, tc.rep, 0.05, 0.1)
		if !slices.Equal(v.Missed, tc.missed) || !slices.Equal(v.Off, tc.off) ||
			!slices.Equal(v.False, tc.fp) || math.Abs(v.Worst-tc.worst) > 1e-9 {
			t.Errorf("%s: verdict %+v", tc.name, v)
		}
		if (v.Err() == nil) != (tc.missed == nil && tc.off == nil && tc.fp == nil) {
			t.Errorf("%s: Err() = %v", tc.name, v.Err())
		}
	}
}

func TestAuditWindow(t *testing.T) {
	// The last W = 10 items are 8×5 and 9×5; the covered suffix M = 12
	// adds two copies of 7. At ε = 0.25, ϕ = 0.5: ϕ·W = 5, (ϕ−ε)·M = 3
	// and ε·M = 3.
	stream := slices.Concat(slices.Repeat([]uint64{7}, 10),
		slices.Repeat([]uint64{8}, 5), slices.Repeat([]uint64{9}, 5))
	v := AuditWindow(stream, []Estimate{{8, 5}, {7, 2}}, 10, 12, 0.25, 0.5)
	if !slices.Equal(v.Missed, []uint64{9}) || !slices.Equal(v.False, []uint64{7}) || v.Off != nil {
		t.Fatalf("verdict %+v", v)
	}
	// Estimates are held to the covered suffix, not to the whole stream.
	if v := AuditWindow(stream, []Estimate{{8, 5}, {9, 5}, {7, 6}}, 10, 12, 0.25, 0.5); !slices.Equal(v.Off, []uint64{7}) {
		t.Fatalf("verdict %+v", v)
	}
	// W and M beyond the stream clamp to it.
	if err := AuditWindow(stream, []Estimate{{7, 10}}, 100, 100, 0.25, 0.5).Err(); err != nil {
		t.Fatal(err)
	}
}
