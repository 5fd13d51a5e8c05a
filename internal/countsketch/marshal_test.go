package countsketch

import (
	"errors"
	"testing"

	"repro/internal/hash"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/wire"
)

func TestMarshalMidStream(t *testing.T) {
	orig := New(rng.New(1), 5, 64)
	g := stream.NewZipf(rng.New(2), 300, 1.2)
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
	for x := uint64(0); x < 300; x++ {
		if orig.Estimate(x) != restored.Estimate(x) {
			t.Fatalf("estimate diverged for %d", x)
		}
	}
	sibling := New(rng.New(1), 5, 64)
	if err := restored.Merge(sibling); err != nil {
		t.Fatalf("restored sketch lost mergeability: %v", err)
	}
}

func TestMarshalRejectsCorruption(t *testing.T) {
	s := New(rng.New(3), 2, 8)
	s.Insert(1)
	blob, _ := s.MarshalBinary()
	var r Sketch
	if err := r.UnmarshalBinary(blob[:4]); err == nil {
		t.Fatal("truncated blob accepted")
	}
	if err := r.UnmarshalBinary([]byte{9, 9, 9}); err == nil {
		t.Fatal("garbage accepted")
	}
}

// tamperedBlob hand-writes a depth-2, width-16 sketch whose first row has
// bucket hash (a, b, r) and sign hash (sa, sb, sr); the second row is
// valid.
func tamperedBlob(a, b, r, sa, sb, sr uint64) []byte {
	const width = 16
	w := wire.NewWriter()
	w.U64(marshalVersion)
	w.U64(2)
	w.U64(width)
	w.U64(0)
	for _, f := range [][6]uint64{{a, b, r, sa, sb, sr}, {3, 5, width, 7, 11, 2}} {
		for _, v := range f {
			w.U64(v)
		}
		w.U64(width)
		for i := 0; i < width; i++ {
			w.I64(0)
		}
	}
	return w.Bytes()
}

// TestUnmarshalRejectsForeignHash: a bucket hash whose range is not the
// width, a sign hash whose range is not 2, or coefficients outside the
// Carter–Wegman family must fail to decode with ErrCorrupt rather than
// restore a sketch that indexes past its rows.
func TestUnmarshalRejectsForeignHash(t *testing.T) {
	const p = hash.Mersenne61
	cases := []struct {
		name string
		f    [6]uint64
	}{
		{"bucket range 1000·width", [6]uint64{3, 5, 16000, 7, 11, 2}},
		{"bucket range 0", [6]uint64{3, 5, 0, 7, 11, 2}},
		{"bucket a = 0", [6]uint64{0, 5, 16, 7, 11, 2}},
		{"bucket a = p", [6]uint64{p, 5, 16, 7, 11, 2}},
		{"bucket b = p", [6]uint64{3, p, 16, 7, 11, 2}},
		{"sign range 3", [6]uint64{3, 5, 16, 7, 11, 3}},
		{"sign a = p", [6]uint64{3, 5, 16, p, 11, 2}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if v := recover(); v != nil {
					t.Fatalf("panic: %v", v)
				}
			}()
			var s Sketch
			err := s.UnmarshalBinary(tamperedBlob(c.f[0], c.f[1], c.f[2], c.f[3], c.f[4], c.f[5]))
			if !errors.Is(err, wire.ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
	var s Sketch
	if err := s.UnmarshalBinary(tamperedBlob(3, 5, 16, 7, 11, 2)); err != nil {
		t.Fatalf("valid hand-written blob rejected: %v", err)
	}
	for x := uint64(0); x < 1000; x++ {
		s.Insert(x)
		_ = s.Estimate(x)
	}
}
