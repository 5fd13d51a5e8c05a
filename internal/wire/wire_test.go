package wire

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRoundTripScalars(t *testing.T) {
	w := NewWriter()
	w.U64(0)
	w.U64(1 << 60)
	w.I64(-42)
	w.Bool(true)
	w.Bool(false)
	w.F64(3.14159)
	w.F64(math.Inf(-1))
	r := NewReader(w.Bytes())
	if r.U64() != 0 || r.U64() != 1<<60 || r.I64() != -42 {
		t.Fatal("integer round trip failed")
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("bool round trip failed")
	}
	if r.F64() != 3.14159 || !math.IsInf(r.F64(), -1) {
		t.Fatal("float round trip failed")
	}
	if !r.Done() {
		t.Fatal("reader not drained")
	}
}

func TestRoundTripSlicesAndMaps(t *testing.T) {
	w := NewWriter()
	w.U64s([]uint64{5, 0, 1 << 40})
	w.U32s([]uint32{7, 0, math.MaxUint32})
	w.Map(map[uint64]uint64{9: 1, 2: 3})
	r := NewReader(w.Bytes())
	s := r.U64s()
	if len(s) != 3 || s[2] != 1<<40 {
		t.Fatalf("u64s = %v", s)
	}
	s32 := r.U32s()
	if len(s32) != 3 || s32[2] != math.MaxUint32 {
		t.Fatalf("u32s = %v", s32)
	}
	m := r.Map()
	if len(m) != 2 || m[9] != 1 || m[2] != 3 {
		t.Fatalf("map = %v", m)
	}
	if !r.Done() {
		t.Fatal("reader not drained")
	}
}

func TestRoundTripBlob(t *testing.T) {
	w := NewWriter()
	w.Blob([]byte("inner encoding"))
	w.Blob(nil)
	w.U64(7)
	r := NewReader(w.Bytes())
	if string(r.Blob()) != "inner encoding" {
		t.Fatal("blob round trip failed")
	}
	if len(r.Blob()) != 0 || r.Err() != nil {
		t.Fatal("empty blob round trip failed")
	}
	if r.U64() != 7 || !r.Done() {
		t.Fatal("reader misaligned after blobs")
	}
}

func TestBlobTruncationDetected(t *testing.T) {
	w := NewWriter()
	w.Blob([]byte{1, 2, 3, 4, 5})
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		if r.Blob(); r.Err() == nil {
			t.Fatalf("blob truncation at %d undetected", cut)
		}
	}
}

func TestDeterministicMapEncoding(t *testing.T) {
	a, b := NewWriter(), NewWriter()
	m := map[uint64]uint64{1: 2, 3: 4, 5: 6, 7: 8}
	a.Map(m)
	b.Map(map[uint64]uint64{7: 8, 5: 6, 3: 4, 1: 2})
	if string(a.Bytes()) != string(b.Bytes()) {
		t.Fatal("map encoding not deterministic")
	}
}

func TestTruncationDetected(t *testing.T) {
	w := NewWriter()
	w.U64s([]uint64{1, 2, 3})
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		r.U64s()
		if r.Err() == nil && cut < len(full) {
			// Some prefixes decode fewer elements without error only if
			// they happen to form a complete encoding; the length prefix
			// makes that impossible here.
			t.Fatalf("truncation at %d undetected", cut)
		}
	}
}

func TestHugeLengthRejected(t *testing.T) {
	w := NewWriter()
	w.U64(1 << 62) // absurd length prefix
	r := NewReader(w.Bytes())
	if r.U64s() != nil || r.Err() == nil {
		t.Fatal("absurd length accepted")
	}
	r2 := NewReader(w.Bytes())
	if r2.Map() != nil || r2.Err() == nil {
		t.Fatal("absurd map length accepted")
	}
}

func TestErrorSticky(t *testing.T) {
	r := NewReader(nil)
	_ = r.U64()
	if r.Err() == nil {
		t.Fatal("empty read must error")
	}
	// Further reads keep returning zero values without panicking.
	if r.U64() != 0 || r.F64() != 0 || r.Bool() {
		t.Fatal("sticky error state broken")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	err := quick.Check(func(us []uint64, f float64, i int64) bool {
		w := NewWriter()
		w.U64s(us)
		w.F64(f)
		w.I64(i)
		r := NewReader(w.Bytes())
		got := r.U64s()
		gf := r.F64()
		gi := r.I64()
		if !r.Done() {
			return false
		}
		if len(got) != len(us) || gi != i {
			return false
		}
		if !(gf == f || (math.IsNaN(gf) && math.IsNaN(f))) {
			return false
		}
		for k := range us {
			if got[k] != us[k] {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}
