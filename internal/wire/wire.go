// Package wire provides the compact binary codec the sketches use for
// MarshalBinary/UnmarshalBinary. Serialization matters twice here: it is
// the operational form of the paper's one-way communication arguments
// (Alice's message to Bob *is* the serialized sketch, §4), and it is what
// lets deployments checkpoint a sketch or move it between processes.
//
// Format: all integers are unsigned varints (LEB128, as in
// encoding/binary); floats are IEEE-754 bits as fixed 8-byte
// little-endian; maps are length-prefixed key/value runs sorted by key so
// encoding is deterministic.
package wire

import (
	"encoding/binary"
	"errors"
	"math"
	"sort"
)

// ErrCorrupt reports a malformed or truncated encoding.
var ErrCorrupt = errors.New("wire: corrupt encoding")

// Writer accumulates an encoding.
type Writer struct {
	buf []byte
}

// NewWriter returns an empty writer.
func NewWriter() *Writer { return &Writer{} }

// Bytes returns the accumulated encoding.
func (w *Writer) Bytes() []byte { return w.buf }

// U64 appends an unsigned varint.
func (w *Writer) U64(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// I64 appends a zigzag-encoded signed varint.
func (w *Writer) I64(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

// Bool appends a boolean.
func (w *Writer) Bool(v bool) {
	if v {
		w.U64(1)
	} else {
		w.U64(0)
	}
}

// F64 appends a float64 as fixed 8 bytes.
func (w *Writer) F64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}

// U64s appends a length-prefixed slice.
func (w *Writer) U64s(vs []uint64) {
	w.U64(uint64(len(vs)))
	for _, v := range vs {
		w.U64(v)
	}
}

// U32s appends a length-prefixed slice of uint32.
func (w *Writer) U32s(vs []uint32) {
	w.U64(uint64(len(vs)))
	for _, v := range vs {
		w.U64(uint64(v))
	}
}

// Blob appends a length-prefixed opaque byte string. Nested encodings
// (e.g. a sharded container framing the per-shard sketch encodings) use
// it so inner formats stay self-describing without the outer format
// knowing their length rules.
func (w *Writer) Blob(b []byte) {
	w.U64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// Map appends a map with sorted keys, so equal maps encode equally.
func (w *Writer) Map(m map[uint64]uint64) {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	w.U64(uint64(len(keys)))
	for _, k := range keys {
		w.U64(k)
		w.U64(m[k])
	}
}

// Reader consumes an encoding.
type Reader struct {
	buf []byte
	err error
}

// NewReader returns a reader over data.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// Done reports whether the input was fully consumed without error.
func (r *Reader) Done() bool { return r.err == nil && len(r.buf) == 0 }

// U64 reads an unsigned varint.
func (r *Reader) U64() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.err = ErrCorrupt
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// I64 reads a zigzag-encoded signed varint.
func (r *Reader) I64() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		r.err = ErrCorrupt
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.U64() != 0 }

// F64 reads a fixed 8-byte float64.
func (r *Reader) F64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.buf) < 8 {
		r.err = ErrCorrupt
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf))
	r.buf = r.buf[8:]
	return v
}

// Length reads the length prefix of a run of elements that take at least
// one byte each, failing when the remaining input is too short to hold
// them, so a caller can allocate for the run before reading it. It
// returns 0 on failure.
func (r *Reader) Length() uint64 {
	n := r.U64()
	if r.err == nil && n > uint64(len(r.buf))+1 {
		r.err = ErrCorrupt
	}
	if r.err != nil {
		return 0
	}
	return n
}

// U64s reads a length-prefixed slice.
func (r *Reader) U64s() []uint64 {
	n := r.Length()
	if r.err != nil {
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = r.U64()
	}
	return out
}

// U32s reads a length-prefixed slice of uint32.
func (r *Reader) U32s() []uint32 {
	n := r.Length()
	if r.err != nil {
		return nil
	}
	out := make([]uint32, n)
	for i := range out {
		v := r.U64()
		if v > math.MaxUint32 {
			r.err = ErrCorrupt
			return nil
		}
		out[i] = uint32(v)
	}
	return out
}

// Blob reads a length-prefixed byte string written by Writer.Blob. The
// returned slice aliases the reader's buffer; callers that keep it past
// the reader's lifetime should copy.
func (r *Reader) Blob() []byte {
	n := r.U64()
	if r.err != nil || n > uint64(len(r.buf)) {
		if r.err == nil {
			r.err = ErrCorrupt
		}
		return nil
	}
	out := r.buf[:n]
	r.buf = r.buf[n:]
	return out
}

// Map reads a map written by Writer.Map.
func (r *Reader) Map() map[uint64]uint64 {
	n := r.Length()
	if r.err != nil {
		return nil
	}
	out := make(map[uint64]uint64, n)
	for i := uint64(0); i < n; i++ {
		k := r.U64()
		out[k] = r.U64()
	}
	return out
}
