package cms

import (
	"fmt"

	"repro/internal/hash"
	"repro/internal/wire"
)

const marshalVersion = 1

// MarshalBinary encodes the full sketch state, including hash seeds, so
// the restored sketch answers identically and remains mergeable with the
// original's siblings.
func (s *Sketch) MarshalBinary() ([]byte, error) {
	w := wire.NewWriter()
	w.U64(marshalVersion)
	w.U64(uint64(s.depth))
	w.U64(s.width)
	w.U64(s.m)
	w.Bool(s.conservative)
	for i := range s.rows {
		s.hashes[i].Encode(w)
		w.U64s(s.rows[i])
	}
	return w.Bytes(), nil
}

// UnmarshalBinary decodes state written by MarshalBinary.
func (s *Sketch) UnmarshalBinary(data []byte) error {
	r := wire.NewReader(data)
	if r.U64() != marshalVersion {
		return fmt.Errorf("cms: %w", wire.ErrCorrupt)
	}
	depth := r.U64()
	width := r.U64()
	m := r.U64()
	conservative := r.Bool()
	if r.Err() != nil || depth == 0 || depth > 1<<16 || width == 0 {
		return fmt.Errorf("cms: %w", wire.ErrCorrupt)
	}
	out := Sketch{
		depth: int(depth), width: width, m: m, conservative: conservative,
		rows:   make([][]uint64, depth),
		hashes: make([]hash.Func, depth),
	}
	for i := uint64(0); i < depth; i++ {
		out.hashes[i] = hash.DecodeFunc(r)
		out.rows[i] = r.U64s()
		// The hash indexes the row directly: its range must be the width.
		if r.Err() != nil || uint64(len(out.rows[i])) != width ||
			!out.hashes[i].Valid() || out.hashes[i].Range() != width {
			return fmt.Errorf("cms: %w", wire.ErrCorrupt)
		}
	}
	if !r.Done() {
		return fmt.Errorf("cms: %w", wire.ErrCorrupt)
	}
	*s = out
	return nil
}
