// Package compact provides the space-accounting substrate the paper's
// bounds are stated in.
//
// The paper stores integers in the variable-length arrays of Blandford and
// Blelloch [BB08]: a counter holding C occupies O(log C) bits yet supports
// O(1) reads and updates (§2.3). Reimplementing BB08's bit-packed memory
// layout would change no observable behaviour of the algorithms, so this
// package keeps counters in machine words for O(1) access and *accounts*
// for them at their variable-length cost: a counter holding v is charged
// ⌈log₂(v+1)⌉ + 1 bits (value plus a terminator, the standard
// self-delimiting cost). All ModelBits methods across the repository follow
// this model; DESIGN.md §4 states the full set of rules.
package compact

// BitsFor returns ⌈log₂(v+1)⌉ with a minimum of 1 — the width of a
// variable-length register holding v.
func BitsFor(v uint64) int64 {
	var n int64
	for ; v > 0; v >>= 1 {
		n++
	}
	if n == 0 {
		return 1
	}
	return n
}

// CounterBits is the BB08 charge for one counter holding v: its width plus
// one delimiter bit.
func CounterBits(v uint64) int64 { return BitsFor(v) + 1 }

// IDBits is the charge for storing one id out of a universe of size n
// (ids in [0, n)): ⌈log₂ n⌉, with a minimum of 1.
func IDBits(universe uint64) int64 {
	if universe <= 1 {
		return 1
	}
	return BitsFor(universe - 1)
}

// BitVector is a fixed-length vector of bits.
type BitVector struct {
	words []uint64
	n     int
	ones  int
}

// NewBitVector returns an all-zero vector of n bits.
func NewBitVector(n int) *BitVector {
	if n < 0 {
		panic("compact: negative bit vector length")
	}
	return &BitVector{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of bits.
func (b *BitVector) Len() int { return b.n }

// Set sets bit i to 1.
func (b *BitVector) Set(i int) {
	b.check(i)
	w, m := i/64, uint64(1)<<(uint(i)%64)
	if b.words[w]&m == 0 {
		b.words[w] |= m
		b.ones++
	}
}

// Get reports whether bit i is set.
func (b *BitVector) Get(i int) bool {
	b.check(i)
	return b.words[i/64]&(uint64(1)<<(uint(i)%64)) != 0
}

// Count returns the number of set bits.
func (b *BitVector) Count() int { return b.ones }

// All reports whether every bit is set.
func (b *BitVector) All() bool { return b.ones == b.n }

// FirstClear returns the index of the lowest zero bit, or −1 if all bits
// are set.
func (b *BitVector) FirstClear() int {
	for i := 0; i < b.n; i++ {
		w := b.words[i/64]
		if w == ^uint64(0) {
			i += 63
			continue
		}
		if w&(uint64(1)<<(uint(i)%64)) == 0 {
			return i
		}
	}
	return -1
}

// ModelBits charges one bit per position.
func (b *BitVector) ModelBits() int64 { return int64(b.n) }

func (b *BitVector) check(i int) {
	if i < 0 || i >= b.n {
		panic("compact: bit index out of range")
	}
}

// MapBits charges a map from ids (out of a universe of size n, i.e. ids in
// [0, n)) to counter values: ⌈log₂ n⌉ bits per key plus the variable-length
// cost of each value. It is the accounting used for all id→count tables.
func MapBits(m map[uint64]uint64, universe uint64) int64 {
	idBits := IDBits(universe)
	var b int64
	for _, v := range m {
		b += idBits + CounterBits(v)
	}
	return b
}
