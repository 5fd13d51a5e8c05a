package countsketch

import (
	"fmt"

	"repro/internal/hash"
	"repro/internal/wire"
)

const marshalVersion = 1

// MarshalBinary encodes the full sketch state, including bucket and sign
// hash seeds.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	w := wire.NewWriter()
	w.U64(marshalVersion)
	w.U64(uint64(s.depth))
	w.U64(s.width)
	w.U64(s.m)
	for i := range s.rows {
		s.buckets[i].Encode(w)
		s.signs[i].Encode(w)
		w.U64(uint64(len(s.rows[i])))
		for _, v := range s.rows[i] {
			w.I64(v)
		}
	}
	return w.Bytes(), nil
}

// UnmarshalBinary decodes state written by MarshalBinary.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	if r.U64() != marshalVersion {
		return fmt.Errorf("countsketch: %w", wire.ErrCorrupt)
	}
	depth := r.U64()
	width := r.U64()
	m := r.U64()
	if r.Err() != nil || depth == 0 || depth > 1<<16 || width == 0 {
		return fmt.Errorf("countsketch: %w", wire.ErrCorrupt)
	}
	out := Sketch{
		depth: int(depth), width: width, m: m,
		rows:    make([][]int64, depth),
		buckets: make([]hash.Func, depth),
		signs:   make([]hash.Sign, depth),
	}
	for i := uint64(0); i < depth; i++ {
		out.buckets[i] = hash.DecodeFunc(r)
		out.signs[i] = hash.DecodeSign(r)
		n := r.U64()
		// The bucket hash indexes the row directly: its range must be the
		// width.
		if r.Err() != nil || n != width || !out.buckets[i].Valid() ||
			out.buckets[i].Range() != width || !out.signs[i].Valid() {
			return fmt.Errorf("countsketch: %w", wire.ErrCorrupt)
		}
		out.rows[i] = make([]int64, n)
		for j := range out.rows[i] {
			out.rows[i][j] = r.I64()
		}
	}
	if r.Err() != nil || !r.Done() {
		return fmt.Errorf("countsketch: %w", wire.ErrCorrupt)
	}
	*s = out
	return nil
}
