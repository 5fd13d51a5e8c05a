package sample

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/wire"
)

func TestPowerOfTwoFloor(t *testing.T) {
	cases := []struct {
		p     float64
		want  float64
		wantK uint
	}{
		{1, 1, 0},
		{2, 1, 0},
		{0.5, 0.5, 1},
		{0.6, 0.5, 1},
		{0.25, 0.25, 2},
		{0.3, 0.25, 2},
		{0.1, 0.0625, 4},
	}
	for _, c := range cases {
		got, k := PowerOfTwoFloor(c.p)
		if got != c.want || k != c.wantK {
			t.Fatalf("PowerOfTwoFloor(%v) = (%v,%d), want (%v,%d)", c.p, got, k, c.want, c.wantK)
		}
	}
}

func TestPowerOfTwoFloorInvariant(t *testing.T) {
	err := quick.Check(func(raw uint32) bool {
		p := (float64(raw) + 1) / float64(math.MaxUint32+2) // p in (0,1)
		pp, k := PowerOfTwoFloor(p)
		if pp > p && k < 62 {
			return false // must round down (unless clamped at k=62)
		}
		if k > 0 && k < 62 && 2*pp <= p {
			return false // must be the *largest* power of two ≤ p
		}
		return pp == math.Ldexp(1, -int(k))
	}, &quick.Config{MaxCount: 5000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestPowerOfTwoFloorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PowerOfTwoFloor(0)
}

func TestCoinAlwaysHeadsAtK0(t *testing.T) {
	c := NewCoin(rng.New(1), 0)
	for i := 0; i < 100; i++ {
		if !c.Flip() {
			t.Fatal("k=0 coin must always be heads")
		}
	}
}

func TestCoinRate(t *testing.T) {
	for _, k := range []uint{1, 3, 6} {
		c := NewCoin(rng.New(uint64(k)), k)
		const n = 1 << 20
		heads := 0
		for i := 0; i < n; i++ {
			if c.Flip() {
				heads++
			}
		}
		want := float64(n) * math.Ldexp(1, -int(k))
		got := float64(heads)
		if math.Abs(got-want) > 6*math.Sqrt(want) {
			t.Fatalf("k=%d: %v heads, want ≈%v", k, got, want)
		}
	}
}

func TestCoinPanicsOnHugeK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCoin(rng.New(1), 63)
}

func TestCoinModelBitsSmall(t *testing.T) {
	// Lemma 1: O(log log m) bits. For k = 40 (streams up to 2^40) the charge
	// must be well under, say, 16 bits.
	c := NewCoin(rng.New(1), 40)
	if b := c.ModelBits(); b <= 0 || b > 16 {
		t.Fatalf("coin ModelBits = %d, want small positive", b)
	}
}

func TestBernoulliCounts(t *testing.T) {
	b := NewBernoulli(rng.New(2), 0.25)
	const n = 100000
	acc := 0
	for i := 0; i < n; i++ {
		if b.Next() {
			acc++
		}
	}
	if b.Offered() != n {
		t.Fatalf("offered %d, want %d", b.Offered(), n)
	}
	if b.Accepted() != uint64(acc) {
		t.Fatalf("accepted bookkeeping mismatch")
	}
	want := 0.25 * n
	if math.Abs(float64(acc)-want) > 6*math.Sqrt(want) {
		t.Fatalf("accept count %d, want ≈%v", acc, want)
	}
}

func TestBernoulliProbabilityRounded(t *testing.T) {
	b := NewBernoulli(rng.New(3), 0.3)
	if b.Probability() != 0.25 {
		t.Fatalf("probability %v, want 0.25 (power-of-two floor)", b.Probability())
	}
}

// TestSkipMatchesBernoulliRate: the gap sampler must realize the same rate.
func TestSkipMatchesBernoulliRate(t *testing.T) {
	for _, p := range []float64{1, 0.5, 0.125, 0.01} {
		s := NewSkip(rng.New(4), p)
		pp, _ := PowerOfTwoFloor(p)
		const n = 1 << 18
		acc := 0
		for i := 0; i < n; i++ {
			if s.Next() {
				acc++
			}
		}
		want := pp * n
		if p >= 1 {
			if acc != n {
				t.Fatal("p=1 skip sampler must accept everything")
			}
			continue
		}
		if math.Abs(float64(acc)-want) > 8*math.Sqrt(want) {
			t.Fatalf("p=%v: accepted %d, want ≈%v", p, acc, want)
		}
	}
}

// TestLemma3FrequencyPreservation reproduces Lemma 3 on the sampler the
// engines use: a Bernoulli sample of expected size at least
// r = 2ε⁻²·log(2/δ) preserves every relative frequency to ±ε.
func TestLemma3FrequencyPreservation(t *testing.T) {
	const eps = 0.05
	const m = 200000
	src := rng.New(5)
	// Stream: item 0 at 30%, item 1 at 10%, rest uniform over 100 ids.
	stream := make([]uint64, m)
	for i := range stream {
		switch u := src.Float64(); {
		case u < 0.3:
			stream[i] = 0
		case u < 0.4:
			stream[i] = 1
		default:
			stream[i] = 2 + src.Uint64n(100)
		}
	}
	r := 2 / (eps * eps) * math.Log(2/0.05)
	// The rate rounds down to a power of two, so ask for twice r/m.
	sk := NewSkip(rng.New(6), 2*r/m)
	exactFreq := make(map[uint64]int)
	sampFreq := make(map[uint64]int)
	sampled := 0
	for _, x := range stream {
		exactFreq[x]++
		if sk.Next() {
			sampFreq[x]++
			sampled++
		}
	}
	if float64(sampled) < r {
		t.Fatalf("sample of %d items, want at least r = %.0f", sampled, r)
	}
	for _, item := range []uint64{0, 1, 2} {
		fm := float64(exactFreq[item]) / m
		fr := float64(sampFreq[item]) / float64(sampled)
		if math.Abs(fm-fr) > eps {
			t.Fatalf("item %d: sample freq %v vs true %v differs by more than ε", item, fr, fm)
		}
	}
}

func TestBernoulliModelBitsGrowSlowly(t *testing.T) {
	b := NewBernoulli(rng.New(9), 0.5)
	for i := 0; i < 10000; i++ {
		b.Next()
	}
	// accepted ≈ 5000 → register ≈ 13+1 bits; coin ≈ 2 bits. Far below 64.
	if bits := b.ModelBits(); bits <= 0 || bits > 64 {
		t.Fatalf("ModelBits = %d", bits)
	}
}

// TestAdvanceMatchesNext: Advance consumes items exactly as Next does.
// Two samplers on one seed walk the same positions, one a call of Next
// per item, the other in Advance runs of 0 items, 1 item, the pending
// gap (ending just before the next accept) and one past it; both must
// accept the same positions and encode the same state after every run.
func TestAdvanceMatchesNext(t *testing.T) {
	for _, p := range []float64{1, 0.5, 1.0 / (1 << 8), 1.0 / (1 << 20)} {
		next, adv := NewSkip(rng.New(9), p), NewSkip(rng.New(9), p)
		var want, got []uint64
		var pos uint64
		for round := 0; round < 64; round++ {
			n := [4]int{0, 1, int(adv.gap), int(adv.gap) + 1}[round%4]
			for i := 0; i < n; i++ {
				if next.Next() {
					want = append(want, pos+uint64(i))
				}
			}
			for off := 0; off < n; {
				k := adv.Advance(n - off)
				if k == n-off {
					break
				}
				got = append(got, pos+uint64(off+k))
				off += k + 1
			}
			pos += uint64(n)
			a, b := wire.NewWriter(), wire.NewWriter()
			next.Encode(a)
			adv.Encode(b)
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("p=%g round %d (n=%d): Advance and Next encode different state", p, round, n)
			}
		}
		if len(got) == 0 || len(got) != len(want) {
			t.Fatalf("p=%g: Advance accepted %d positions, Next %d", p, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("p=%g: accept %d at position %d under Advance, %d under Next", p, i, got[i], want[i])
			}
		}
	}
}

func BenchmarkBernoulliNext(b *testing.B) {
	s := NewBernoulli(rng.New(1), 0.01)
	for i := 0; i < b.N; i++ {
		_ = s.Next()
	}
}

func BenchmarkSkipNext(b *testing.B) {
	s := NewSkip(rng.New(1), 0.01)
	for i := 0; i < b.N; i++ {
		_ = s.Next()
	}
}
