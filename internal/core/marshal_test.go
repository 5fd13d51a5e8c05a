package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/wire"
)

// roundTrip marshals mid-stream, unmarshals into a fresh value, finishes
// the stream on both, and requires identical reports — the exact protocol
// the paper's communication arguments perform.
func TestSimpleListMarshalMidStream(t *testing.T) {
	const m = 200000
	st := plantedHH(3, m, stream.Shuffled)
	orig, err := NewSimpleList(rng.New(5), listConfig(m))
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range st[:m/2] {
		orig.Insert(x)
	}
	blob, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored SimpleList
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	for _, x := range st[m/2:] {
		orig.Insert(x)
		restored.Insert(x)
	}
	a, b := orig.Report(), restored.Report()
	if len(a) != len(b) {
		t.Fatalf("report lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("reports diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	if orig.ModelBits() != restored.ModelBits() {
		t.Fatal("model bits diverge after round trip")
	}
}

func TestMaximumMarshalMidStream(t *testing.T) {
	const m = 150000
	st := plantedHH(4, m, stream.Shuffled)
	cfg := Config{Eps: 0.05, Delta: 0.2, M: m, N: 1 << 32}
	orig, err := NewMaximum(rng.New(6), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range st[:m/2] {
		orig.Insert(x)
	}
	blob, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored Maximum
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	for _, x := range st[m/2:] {
		orig.Insert(x)
		restored.Insert(x)
	}
	i1, f1, ok1 := orig.Report()
	i2, f2, ok2 := restored.Report()
	if i1 != i2 || f1 != f2 || ok1 != ok2 {
		t.Fatalf("reports diverge: (%d,%v,%v) vs (%d,%v,%v)", i1, f1, ok1, i2, f2, ok2)
	}
}

func TestOptimalMarshalMidStream(t *testing.T) {
	const m = 200000
	st := plantedHH(7, m, stream.Shuffled)
	orig, err := NewOptimal(rng.New(8), listConfig(m))
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range st[:m/2] {
		orig.Insert(x)
	}
	blob, err := orig.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored Optimal
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	for _, x := range st[m/2:] {
		orig.Insert(x)
		restored.Insert(x)
	}
	a, b := orig.Report(), restored.Report()
	if len(a) != len(b) {
		t.Fatalf("report lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("reports diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	if orig.ModelBits() != restored.ModelBits() {
		t.Fatal("model bits diverge after round trip")
	}
}

// marshalOptimalV1 encodes o in the pre-merge-tier v1 layout (no
// pre-credit rows), replicating the PR 1 encoder so upgrade
// compatibility stays tested.
func marshalOptimalV1(o *Optimal) []byte {
	w := wire.NewWriter()
	w.U64(1)
	encodeConfig(w, o.cfg)
	o.sampler.Encode(w)
	o.t1.Encode(w)
	w.U64(uint64(o.reps))
	w.U64(o.u)
	for j := 0; j < o.reps; j++ {
		o.hashes[j].Encode(w)
		o.t2.encodeRow(w, j)
		for i := uint64(0); i < o.u; i++ {
			w.U32s(o.t3[uint64(j)*o.u+i])
		}
	}
	w.U64(uint64(o.epsK))
	w.F64(o.epsEff)
	w.F64(o.base)
	w.U64(o.src.State())
	w.U64(o.s)
	w.U64(o.offered)
	w.U64(uint64(o.maxEpoch))
	return w.Bytes()
}

// TestOptimalUnmarshalAcceptsV1: a checkpoint written before the merge
// tier (marshal v1) must restore — same report, and re-marshalling
// upgrades it to the current layout.
func TestOptimalUnmarshalAcceptsV1(t *testing.T) {
	const m = 100000
	st := plantedHH(9, m, stream.Shuffled)
	orig, err := NewOptimal(rng.New(10), listConfig(m))
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range st {
		orig.Insert(x)
	}
	var restored Optimal
	if err := restored.UnmarshalBinary(marshalOptimalV1(orig)); err != nil {
		t.Fatalf("v1 checkpoint rejected: %v", err)
	}
	if fmt.Sprint(restored.Report()) != fmt.Sprint(orig.Report()) {
		t.Fatal("v1-restored report differs")
	}
	up, err := restored.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var again Optimal
	if err := again.UnmarshalBinary(up); err != nil {
		t.Fatalf("re-marshalled (upgraded) checkpoint rejected: %v", err)
	}
	// An unknown future version is a version error, not "corrupt".
	future := append([]byte{}, up...)
	future[0] = 9
	var bad Optimal
	if err := bad.UnmarshalBinary(future); err == nil || !strings.Contains(err.Error(), "unsupported") {
		t.Fatalf("future version: err = %v, want unsupported-version error", err)
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	orig, err := NewSimpleList(rng.New(9), listConfig(10000))
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 1000; i++ {
		orig.Insert(i % 50)
	}
	blob, _ := orig.MarshalBinary()
	var s SimpleList
	if err := s.UnmarshalBinary(blob[:len(blob)/2]); err == nil {
		t.Fatal("truncated blob accepted")
	}
	if err := s.UnmarshalBinary(nil); err == nil {
		t.Fatal("empty blob accepted")
	}
	garbage := append([]byte{}, blob...)
	garbage[0] ^= 0xFF // break the version tag
	if err := s.UnmarshalBinary(garbage); err == nil {
		t.Fatal("bad version accepted")
	}

	var o Optimal
	if err := o.UnmarshalBinary([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage Optimal blob accepted")
	}
	var mx Maximum
	if err := mx.UnmarshalBinary([]byte{}); err == nil {
		t.Fatal("empty Maximum blob accepted")
	}
}

func TestMarshalDeterministic(t *testing.T) {
	mk := func() []byte {
		a, _ := NewOptimal(rng.New(11), listConfig(50000))
		for i := uint64(0); i < 20000; i++ {
			a.Insert(i % 100)
		}
		b, _ := a.MarshalBinary()
		return b
	}
	if string(mk()) != string(mk()) {
		t.Fatal("same state produced different encodings")
	}
}
