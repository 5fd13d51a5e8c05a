package hash

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestFuncInRange(t *testing.T) {
	src := rng.New(1)
	for _, r := range []uint64{1, 2, 17, 1024, 1 << 40} {
		f := NewFunc(src, r)
		for x := uint64(0); x < 1000; x++ {
			if h := f.Hash(x); h >= r {
				t.Fatalf("hash %d out of range %d", h, r)
			}
		}
	}
}

func TestFuncDeterministic(t *testing.T) {
	f := NewFunc(rng.New(2), 1000)
	for x := uint64(0); x < 100; x++ {
		if f.Hash(x) != f.Hash(x) {
			t.Fatal("hash not deterministic")
		}
	}
}

func TestFuncPanicsOnZeroRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFunc(rng.New(1), 0)
}

// TestUniversality checks the defining property of a universal family
// (Definition 2): for fixed x ≠ y, Pr over the family of a collision is
// ≈ 1/r.
func TestUniversality(t *testing.T) {
	src := rng.New(3)
	const r = 64
	const trials = 20000
	pairs := [][2]uint64{{0, 1}, {5, 1 << 50}, {12345, 54321}, {1, 2}}
	for _, p := range pairs {
		coll := 0
		for i := 0; i < trials; i++ {
			f := NewFunc(src, r)
			if f.Hash(p[0]) == f.Hash(p[1]) {
				coll++
			}
		}
		rate := float64(coll) / trials
		if rate > 2.0/r {
			t.Fatalf("pair %v collision rate %v > 2/r", p, rate)
		}
	}
}

// TestLemma2NoCollision reproduces Lemma 2: hashing |S| keys into a range
// of ⌈|S|²/δ⌉ collides with probability ≤ δ.
func TestLemma2NoCollision(t *testing.T) {
	src := rng.New(4)
	const sz = 100
	const delta = 0.1
	r := uint64(math.Ceil(sz * sz / delta))
	const trials = 400
	bad := 0
	for tr := 0; tr < trials; tr++ {
		f := NewFunc(src, r)
		seen := make(map[uint64]bool, sz)
		collided := false
		for i := uint64(0); i < sz; i++ {
			h := f.Hash(i * 982451653) // spread-out keys
			if seen[h] {
				collided = true
				break
			}
			seen[h] = true
		}
		if collided {
			bad++
		}
	}
	if rate := float64(bad) / trials; rate > 2*delta {
		t.Fatalf("collision rate %v exceeds 2δ = %v", rate, 2*delta)
	}
}

func TestModMersenne61(t *testing.T) {
	cases := []struct{ in, want uint64 }{
		{0, 0},
		{1, 1},
		{Mersenne61, 0},
		{Mersenne61 + 1, 1},
		{2 * Mersenne61, 0},
		{math.MaxUint64, math.MaxUint64 % Mersenne61},
	}
	for _, c := range cases {
		if got := modMersenne61(c.in); got != c.want {
			t.Fatalf("modMersenne61(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestModMersenne61Quick(t *testing.T) {
	err := quick.Check(func(x uint64) bool {
		return modMersenne61(x) == x%Mersenne61
	}, &quick.Config{MaxCount: 5000})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMulAddMatchesBigArithmetic cross-checks the 128-bit folding against
// the straightforward definition computed in pieces that cannot overflow.
func TestMulAddMatchesBigArithmetic(t *testing.T) {
	err := quick.Check(func(aRaw, x, bRaw uint64) bool {
		a := aRaw % Mersenne61
		b := bRaw % Mersenne61
		f := Func{a: a, b: b}
		got := f.affine(modMersenne61(x))
		// Reference: compute a*x mod p by repeated doubling (O(64) but safe).
		want := addMod(mulModRef(a, x%Mersenne61), b)
		return got == want
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

func addMod(a, b uint64) uint64 {
	s := a + b
	if s >= Mersenne61 {
		s -= Mersenne61
	}
	return s
}

func mulModRef(a, b uint64) uint64 {
	var res uint64
	a %= Mersenne61
	for b > 0 {
		if b&1 == 1 {
			res = addMod(res, a)
		}
		a = addMod(a, a)
		b >>= 1
	}
	return res
}

func TestModelBitsPositive(t *testing.T) {
	f := NewFunc(rng.New(9), 100)
	if f.ModelBits() <= 0 {
		t.Fatal("Func.ModelBits not positive")
	}
}

func TestRangeAccessors(t *testing.T) {
	if NewFunc(rng.New(1), 123).Range() != 123 {
		t.Fatal("Func.Range mismatch")
	}
}

func BenchmarkFuncHash(b *testing.B) {
	f := NewFunc(rng.New(1), 1<<20)
	for i := 0; i < b.N; i++ {
		_ = f.Hash(uint64(i))
	}
}
