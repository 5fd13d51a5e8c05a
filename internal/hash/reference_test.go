package hash

import (
	"math/big"
	"testing"

	"repro/internal/rng"
)

// refHash is the defining formula ((a·x + b) mod p) mod r in math/big.
func refHash(a, b, r, x uint64) uint64 {
	p := new(big.Int).SetUint64(Mersenne61)
	v := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(x))
	v.Add(v, new(big.Int).SetUint64(b))
	v.Mod(v, p)
	v.Mod(v, new(big.Int).SetUint64(r))
	return v.Uint64()
}

// hashRanges covers the ranges the callers use (2, u = 6400 and 32000 at
// the default tuning), the edges of the reciprocal (1, 2⁶⁴−1) and the
// edges of the residues (2⁶¹−1, 2⁶¹).
var hashRanges = []uint64{1, 2, 1 << 10, 6400, 32000, Mersenne61, 1 << 61, 1<<64 - 1}

// hashKeys returns keys near 0, near p = 2⁶¹−1 and near 2⁶⁴−1, where
// the pre-reduction and the fold wrap.
func hashKeys() []uint64 {
	var xs []uint64
	for d := uint64(0); d < 8; d++ {
		xs = append(xs, d, Mersenne61-d, Mersenne61+d, 1<<61+d, 1<<64-1-d, 2*Mersenne61+d)
	}
	return xs
}

// hashCoefficients returns the extreme members of the family (a ∈ {1,
// p−1}, b ∈ {0, p−1}) beside random draws.
func hashCoefficients() [][2]uint64 {
	cs := [][2]uint64{{1, 0}, {1, Mersenne61 - 1}, {Mersenne61 - 1, 0}, {Mersenne61 - 1, Mersenne61 - 1}}
	src := rng.New(11)
	for i := 0; i < 16; i++ {
		cs = append(cs, [2]uint64{src.Uint64n(Mersenne61-1) + 1, src.Uint64n(Mersenne61)})
	}
	return cs
}

func TestHashMatchesBigArithmetic(t *testing.T) {
	for _, r := range hashRanges {
		for _, c := range hashCoefficients() {
			f := newFunc(c[0], c[1], r)
			for _, x := range hashKeys() {
				if got, want := f.Hash(x), refHash(c[0], c[1], r, x); got != want {
					t.Fatalf("a=%d b=%d r=%d x=%d: Hash = %d, want %d", c[0], c[1], r, x, got, want)
				}
			}
		}
	}
}

func TestHashAllMatchesBigArithmetic(t *testing.T) {
	cs := hashCoefficients()
	fs := make([]Func, 0, len(cs)*len(hashRanges))
	for _, r := range hashRanges {
		for _, c := range cs {
			fs = append(fs, newFunc(c[0], c[1], r))
		}
	}
	dst := make([]uint64, len(fs)+3) // longer than fs: only the prefix is written
	for _, x := range hashKeys() {
		HashAll(fs, x, dst)
		for i, f := range fs {
			if want := refHash(f.a, f.b, f.r, x); dst[i] != want {
				t.Fatalf("member %d (a=%d b=%d r=%d) x=%d: HashAll = %d, want %d",
					i, f.a, f.b, f.r, x, dst[i], want)
			}
		}
	}
}

// TestReduceExact checks the reciprocal reduction against % over the
// whole 64-bit input range, including inputs the Carter–Wegman residue
// never produces.
func TestReduceExact(t *testing.T) {
	src := rng.New(12)
	for _, r := range append(hashRanges, 3, 7, 1<<63, 1<<63+1, 1<<32+1) {
		f := newFunc(1, 0, r)
		vs := []uint64{0, 1, r - 1, r, 1<<64 - 1, 1<<64 - 2, Mersenne61}
		if r < 1<<63 {
			vs = append(vs, 2*r-1, 2*r, 2*r+1)
		}
		for i := 0; i < 1000; i++ {
			vs = append(vs, src.Uint64())
		}
		for _, v := range vs {
			if got, want := f.reduce(v), v%r; got != want {
				t.Fatalf("r=%d v=%d: reduce = %d, want %d", r, v, got, want)
			}
		}
	}
}

func TestValid(t *testing.T) {
	cases := []struct {
		f    Func
		want bool
	}{
		{newFunc(1, 0, 1), true},
		{newFunc(Mersenne61-1, Mersenne61-1, 1<<64-1), true},
		{newFunc(0, 0, 2), false},
		{newFunc(Mersenne61, 0, 2), false},
		{newFunc(1, Mersenne61, 2), false},
		{newFunc(1, 0, 0), false},
	}
	for _, c := range cases {
		if got := c.f.Valid(); got != c.want {
			t.Fatalf("%+v: Valid = %v, want %v", c.f, got, c.want)
		}
	}
	if !NewSign(rng.New(1)).Valid() || (Sign{f: newFunc(1, 0, 3)}).Valid() {
		t.Fatal("Sign.Valid must accept NewSign draws and reject ranges other than 2")
	}
}
