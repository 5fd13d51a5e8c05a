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
