package stats

import (
	"math"
	"testing"
)

func TestLog2Clamp(t *testing.T) {
	if Log2(0.5) != 1 || Log2(2) != 1 {
		t.Fatal("Log2 must clamp small arguments to 1")
	}
	if Log2(8) != 3 {
		t.Fatalf("Log2(8) = %v", Log2(8))
	}
}

// TestBoundShapes: the whole point of the new bounds is how they scale.
// Check the qualitative facts the paper states.
func TestBoundShapes(t *testing.T) {
	n, m := uint64(1)<<32, uint64(1)<<20

	// Row 5 ≫ row 4 as ε shrinks: the Borda/maximin separation.
	nn := uint64(50)
	if MaximinUpperBits(0.01, nn, m) <= BordaUpperBits(0.01, nn, m) {
		t.Fatal("maximin should cost more than Borda at small ε")
	}

	// Row 3 is cheaper than row 2: log log ε⁻¹ against log ε⁻¹ per ε⁻¹.
	if MinUpperBits(0.01, m) >= MaxUpperBits(0.01, n, m) {
		t.Fatal("ε-Minimum should be cheaper than ε-Maximum")
	}
}

func TestBoundsPositive(t *testing.T) {
	n, m := uint64(1000), uint64(100000)
	for _, v := range []float64{
		MaxUpperBits(0.1, n, m),
		MinUpperBits(0.1, m),
		BordaUpperBits(0.1, 10, m),
		MaximinUpperBits(0.1, 10, m),
	} {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("bound value %v invalid", v)
		}
	}
}
