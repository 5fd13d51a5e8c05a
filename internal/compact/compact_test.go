package compact

import (
	"testing"
	"testing/quick"
)

func TestBitsFor(t *testing.T) {
	cases := []struct {
		v    uint64
		want int64
	}{
		{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{255, 8}, {256, 9}, {1 << 40, 41},
	}
	for _, c := range cases {
		if got := BitsFor(c.v); got != c.want {
			t.Fatalf("BitsFor(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestBitsForMonotone(t *testing.T) {
	err := quick.Check(func(a, b uint64) bool {
		if a > b {
			a, b = b, a
		}
		return BitsFor(a) <= BitsFor(b)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCounterBits(t *testing.T) {
	if CounterBits(0) != 2 {
		t.Fatalf("CounterBits(0) = %d, want 2", CounterBits(0))
	}
	if CounterBits(7) != 4 {
		t.Fatalf("CounterBits(7) = %d, want 4", CounterBits(7))
	}
}

func TestBitVectorBasic(t *testing.T) {
	b := NewBitVector(130)
	if b.Len() != 130 || b.Count() != 0 || b.All() {
		t.Fatal("fresh vector state wrong")
	}
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if b.Count() != 3 {
		t.Fatalf("count %d, want 3", b.Count())
	}
	if !b.Get(0) || !b.Get(64) || !b.Get(129) || b.Get(1) {
		t.Fatal("Get mismatch")
	}
	b.Set(0) // idempotent
	if b.Count() != 3 {
		t.Fatal("double Set changed count")
	}
}

func TestBitVectorAllAndFirstClear(t *testing.T) {
	b := NewBitVector(70)
	for i := 0; i < 70; i++ {
		if b.FirstClear() != i {
			t.Fatalf("FirstClear = %d, want %d", b.FirstClear(), i)
		}
		b.Set(i)
	}
	if !b.All() {
		t.Fatal("All() false after setting everything")
	}
	if b.FirstClear() != -1 {
		t.Fatalf("FirstClear on full vector = %d", b.FirstClear())
	}
}

func TestBitVectorFirstClearSkipsFullWords(t *testing.T) {
	b := NewBitVector(200)
	for i := 0; i < 128; i++ {
		b.Set(i)
	}
	if b.FirstClear() != 128 {
		t.Fatalf("FirstClear = %d, want 128", b.FirstClear())
	}
}

func TestBitVectorOutOfRangePanics(t *testing.T) {
	b := NewBitVector(10)
	for _, f := range []func(){
		func() { b.Set(10) },
		func() { b.Get(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestBitVectorModelBits(t *testing.T) {
	if NewBitVector(1000).ModelBits() != 1000 {
		t.Fatal("bit vector must cost one bit per position")
	}
}

func TestBitVectorZeroLength(t *testing.T) {
	b := NewBitVector(0)
	if !b.All() || b.FirstClear() != -1 || b.ModelBits() != 0 {
		t.Fatal("zero-length vector misbehaves")
	}
}

func TestMapBits(t *testing.T) {
	m := map[uint64]uint64{3: 1, 900: 255}
	// universe 1024 → 10 id bits each; values: 1→1+1, 255→8+1.
	want := int64(10+2) + int64(10+9)
	if got := MapBits(m, 1024); got != want {
		t.Fatalf("MapBits = %d, want %d", got, want)
	}
}

func TestMapBitsEmpty(t *testing.T) {
	if MapBits(map[uint64]uint64{}, 100) != 0 {
		t.Fatal("empty map must cost nothing")
	}
}
