package cms

import (
	"errors"
	"testing"

	"repro/internal/hash"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/wire"
)

func TestMarshalMidStream(t *testing.T) {
	orig := NewWithDims(rng.New(1), 4, 128)
	g := stream.NewZipf(rng.New(2), 500, 1.1)
	for i := 0; i < 10000; i++ {
		orig.Insert(g.Next())
	}
	blob, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored Sketch
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		x := g.Next()
		orig.Insert(x)
		restored.Insert(x)
	}
	for x := uint64(0); x < 500; x++ {
		if orig.Estimate(x) != restored.Estimate(x) {
			t.Fatalf("estimate diverged for %d", x)
		}
	}
	// Restored sketch must remain mergeable with same-seed siblings.
	sibling := NewWithDims(rng.New(1), 4, 128)
	if err := restored.Merge(sibling); err != nil {
		t.Fatalf("restored sketch lost mergeability: %v", err)
	}
}

func TestMarshalRejectsCorruption(t *testing.T) {
	s := NewWithDims(rng.New(3), 2, 16)
	s.Insert(1)
	blob, _ := s.MarshalBinary()
	var r Sketch
	if err := r.UnmarshalBinary(blob[:5]); err == nil {
		t.Fatal("truncated blob accepted")
	}
	if err := r.UnmarshalBinary(nil); err == nil {
		t.Fatal("nil blob accepted")
	}
}

// tamperedBlob hand-writes a depth-2, width-16 sketch whose first row's
// hash has coefficients (a, b) and range r; the second row is valid.
func tamperedBlob(a, b, r uint64) []byte {
	const width = 16
	w := wire.NewWriter()
	w.U64(marshalVersion)
	w.U64(2)
	w.U64(width)
	w.U64(0)
	w.Bool(false)
	for _, f := range [][3]uint64{{a, b, r}, {3, 5, width}} {
		w.U64(f[0])
		w.U64(f[1])
		w.U64(f[2])
		w.U64s(make([]uint64, width))
	}
	return w.Bytes()
}

// TestUnmarshalRejectsForeignHash: a bucket hash whose range is not the
// width, or whose coefficients lie outside the Carter–Wegman family,
// must fail to decode with ErrCorrupt rather than restore a sketch that
// indexes past its rows.
func TestUnmarshalRejectsForeignHash(t *testing.T) {
	const p = hash.Mersenne61
	cases := []struct {
		name    string
		a, b, r uint64
	}{
		{"range 1000·width", 3, 5, 16000},
		{"range 0", 3, 5, 0},
		{"a = 0", 0, 5, 16},
		{"a = p", p, 5, 16},
		{"b = p", 3, p, 16},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if v := recover(); v != nil {
					t.Fatalf("panic: %v", v)
				}
			}()
			var s Sketch
			err := s.UnmarshalBinary(tamperedBlob(c.a, c.b, c.r))
			if !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
	var s Sketch
	if err := s.UnmarshalBinary(tamperedBlob(3, 5, 16)); err != nil {
		t.Fatalf("valid hand-written blob rejected: %v", err)
	}
	for x := uint64(0); x < 1000; x++ {
		s.Insert(x)
		_ = s.Estimate(x)
	}
}
