package hash

import "repro/internal/wire"

// Encode appends the function's parameters to w.
func (f Func) Encode(w *wire.Writer) {
	w.U64(f.a)
	w.U64(f.b)
	w.U64(f.r)
}

// DecodeFunc reads a function written by Encode. Callers must check Valid
// (and the range they expect) before hashing with it.
func DecodeFunc(r *wire.Reader) Func {
	a, b, rng := r.U64(), r.U64(), r.U64()
	return newFunc(a, b, rng)
}

// Encode appends the sign function's parameters to w.
func (s Sign) Encode(w *wire.Writer) { s.f.Encode(w) }

// DecodeSign reads a sign function written by Encode.
func DecodeSign(r *wire.Reader) Sign { return Sign{f: DecodeFunc(r)} }
