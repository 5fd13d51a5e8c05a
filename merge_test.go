package l1hh

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/wire"
)

// mergeTestOpts are the options every merge-test node shares.
func mergeTestOpts(seed uint64, m int, extra ...Option) []Option {
	return append([]Option{
		WithEps(0.02), WithPhi(0.05), WithDelta(0.05),
		WithStreamLength(uint64(m)), WithUniverse(1 << 32), WithSeed(seed),
	}, extra...)
}

// newMergeNode builds a node through New and closes it at cleanup.
func newMergeNode(t *testing.T, opts ...Option) HeavyHitters {
	t.Helper()
	hh, err := New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { hh.Close() })
	return hh
}

// mergeInto folds src's checkpoint into dst through the Merger
// capability.
func mergeInto(t *testing.T, dst, src HeavyHitters) error {
	t.Helper()
	blob, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return dst.(Merger).Merge(blob)
}

// mergeTestPair builds two same-option sharded nodes, each fed one half
// of a fixed planted stream.
func mergeTestPair(t *testing.T, seed uint64, m int) (a, b HeavyHitters, stream []Item) {
	t.Helper()
	stream = GeneratePlantedStream(seed+500, m, shardedTestWeights, 100, 1<<30, OrderShuffled)
	a = newMergeNode(t, mergeTestOpts(seed, m, WithShards(4))...)
	b = newMergeNode(t, mergeTestOpts(seed, m, WithShards(4))...)
	if err := a.InsertBatch(stream[:m/2]); err != nil {
		t.Fatal(err)
	}
	if err := b.InsertBatch(stream[m/2:]); err != nil {
		t.Fatal(err)
	}
	return a, b, stream
}

// TestShardedMergeCommutative: merging A into B and B into A with
// identical seeds yields identical reports.
func TestShardedMergeCommutative(t *testing.T) {
	const m = 100_000
	a1, b1, stream := mergeTestPair(t, 61, m)
	if err := mergeInto(t, a1, b1); err != nil {
		t.Fatal(err)
	}
	a2, b2, _ := mergeTestPair(t, 61, m)
	if err := mergeInto(t, b2, a2); err != nil {
		t.Fatal(err)
	}
	ra, rb := a1.Report(), b2.Report()
	if len(ra) == 0 {
		t.Fatal("empty merged report on a stream with planted heavy hitters")
	}
	if fmt.Sprint(ra) != fmt.Sprint(rb) {
		t.Fatalf("A←B and B←A reports differ:\n%v\n%v", ra, rb)
	}
	checkGuarantees(t, ra, stream, 0.02, 0.05)
}

// TestMergedShardedRoundTrip: a merged engine round-trips through
// Marshal/Unmarshal unchanged — same report, stable bytes, and the
// restored engine keeps ingesting identically to the original.
func TestMergedShardedRoundTrip(t *testing.T) {
	const m = 100_000
	a, b, stream := mergeTestPair(t, 67, m)
	if err := mergeInto(t, a, b); err != nil {
		t.Fatal(err)
	}
	blob, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := Unmarshal(blob)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { restored.Close() })
	if fmt.Sprint(restored.Report()) != fmt.Sprint(a.Report()) {
		t.Fatal("report changed across Marshal/Unmarshal of a merged engine")
	}
	blob2, err := restored.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, blob2) {
		t.Fatal("re-marshalled bytes differ for a merged engine")
	}
	// Both continue the stream identically.
	tail := stream[:10_000]
	if err := a.InsertBatch(tail); err != nil {
		t.Fatal(err)
	}
	if err := restored.InsertBatch(tail); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a.Report()) != fmt.Sprint(restored.Report()) {
		t.Fatal("reports diverge after identical post-merge tails")
	}
}

// TestMergeCheckpointEqualsSerial: merging two half-stream nodes yields
// the stream length and guarantees of the full serial run.
func TestMergeCheckpointEqualsSerial(t *testing.T) {
	const m = 100_000
	a, b, stream := mergeTestPair(t, 71, m)
	if err := mergeInto(t, a, b); err != nil {
		t.Fatal(err)
	}
	if got := a.Len(); got != m {
		t.Fatalf("merged Len = %d, want %d", got, m)
	}
	if got := a.Stats().Items; got != m {
		t.Fatalf("merged Items = %d, want %d", got, m)
	}
	checkGuarantees(t, a.Report(), stream, 0.02, 0.05)
	// The donor is untouched and keeps working.
	if got := b.Len(); got != m/2 {
		t.Fatalf("donor Len = %d, want %d", got, m/2)
	}
}

// TestMergeCheckpointRejects: wrong tags, corrupt frames, parameter and
// partition mismatches — all error, none panic, and parameter
// mismatches wrap ErrIncompatibleMerge.
func TestMergeCheckpointRejects(t *testing.T) {
	const m = 20_000
	a, b, _ := mergeTestPair(t, 73, m)
	blob, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	merger := a.(Merger)

	if err := merger.Merge(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if err := merger.Merge([]byte{tagOptimal, 1, 2}); err == nil {
		t.Fatal("wrong tag accepted")
	}
	if err := merger.Merge(blob[:len(blob)/2]); err == nil {
		t.Fatal("truncation accepted")
	}
	if err := merger.Merge(append(append([]byte{}, blob...), 9)); err == nil {
		t.Fatal("trailing bytes accepted")
	}

	for name, opts := range map[string][]Option{
		"different eps":    append(mergeTestOpts(73, m, WithShards(4)), WithEps(0.03)),
		"different phi":    append(mergeTestOpts(73, m, WithShards(4)), WithPhi(0.06)),
		"different seed":   mergeTestOpts(999, m, WithShards(4)),
		"different shards": mergeTestOpts(73, m, WithShards(2)),
	} {
		if err := mergeInto(t, a, newMergeNode(t, opts...)); !errors.Is(err, ErrIncompatibleMerge) {
			t.Errorf("%s: err = %v, want ErrIncompatibleMerge", name, err)
		}
	}

	// Everything above left a usable: a valid merge still works.
	if err := merger.Merge(blob); err != nil {
		t.Fatalf("valid merge after rejections: %v", err)
	}
	if got := a.Len(); got != m {
		t.Fatalf("Len = %d, want %d", got, m)
	}
}

// TestMergeCheckpointMixedShardsAtomic: a crafted container whose frame
// matches the live engine but whose shards are mutually inconsistent
// (shard 0 compatible, shard 1 from a different problem) must be
// rejected without mutating ANY shard — the check phase runs across the
// whole container before the first fold.
func TestMergeCheckpointMixedShardsAtomic(t *testing.T) {
	const m = 20_000
	a, b, _ := mergeTestPair(t, 89, m)
	blob, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Disassemble the container: tag | eps | phi | blob(snap), with
	// snap = version | shards | seed | items (v2) | blob(engine)...
	r := wire.NewReader(blob[1:])
	eps, phi := r.F64(), r.F64()
	snap := wire.NewReader(r.Blob())
	version, shards, seed := snap.U64(), snap.U64(), snap.U64()
	items := snap.U64() // v2 accepted-items counter
	engines := make([][]byte, shards)
	for i := range engines {
		engines[i] = snap.Blob()
	}
	if snap.Err() != nil || !snap.Done() {
		t.Fatal("could not disassemble a checkpoint this package produced")
	}
	// A solver from a different problem (different ε) in shard 1's slot.
	alien := newMergeNode(t, append(mergeTestOpts(89, m), WithEps(0.03))...)
	alienBlob, err := alien.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	engines[1] = alienBlob
	sw := wire.NewWriter()
	sw.U64(version)
	sw.U64(shards)
	sw.U64(seed)
	sw.U64(items)
	for _, e := range engines {
		sw.Blob(e)
	}
	fw := wire.NewWriter()
	fw.F64(eps)
	fw.F64(phi)
	fw.Blob(sw.Bytes())
	crafted := append([]byte{tagSharded}, fw.Bytes()...)

	before := fmt.Sprint(a.Report())
	beforeLen := a.Len()
	if err := a.(Merger).Merge(crafted); !errors.Is(err, ErrIncompatibleMerge) {
		t.Fatalf("mixed-shard container: err = %v, want ErrIncompatibleMerge", err)
	}
	if got := a.Len(); got != beforeLen {
		t.Fatalf("rejected merge changed Len %d → %d (partial fold)", beforeLen, got)
	}
	if after := fmt.Sprint(a.Report()); after != before {
		t.Fatalf("rejected merge changed the report:\n%s\n%s", before, after)
	}
}

// TestListMergeFromErrors: unknown-length solvers take no part in a
// merge — they are not Mergers and write no checkpoint — and
// mixed-algorithm serial solvers refuse to fold.
func TestListMergeFromErrors(t *testing.T) {
	opts := func(extra ...Option) []Option {
		return append([]Option{WithEps(0.05), WithPhi(0.1), WithDelta(0.05),
			WithUniverse(1 << 20), WithSeed(3)}, extra...)
	}
	unknown := newMergeNode(t, opts()...)
	if _, ok := unknown.(Merger); ok {
		t.Fatal("unknown-length solver claims Merger")
	}
	if _, err := unknown.MarshalBinary(); err == nil {
		t.Fatal("unknown-length solver wrote a checkpoint to merge from")
	}
	optimal := newMergeNode(t, opts(WithStreamLength(10_000), WithAlgorithm(AlgorithmOptimal))...)
	simple := newMergeNode(t, opts(WithStreamLength(10_000), WithAlgorithm(AlgorithmSimple))...)
	if err := mergeInto(t, optimal, simple); !errors.Is(err, ErrIncompatibleMerge) {
		t.Fatalf("mixed-algorithm merge: err = %v, want ErrIncompatibleMerge", err)
	}
}

// TestMergeTagClassification: every Merger — serial, sharded, Borda —
// reads a checkpoint's container tag the same way. Empty input and an
// unassigned tag are decode errors; a known tag of another container
// kind (including the pool tag) wraps ErrIncompatibleMerge; the
// receiver's own kind folds. CheckMerge and Merge agree on every cell.
func TestMergeTagClassification(t *testing.T) {
	blobs := append(anySeedBlobs(t), poolSeedBlob(t), []byte{}, []byte{99, 0, 0, 0})
	for _, rc := range mergeReceivers {
		for _, blob := range blobs {
			name := "empty"
			if len(blob) > 0 {
				name = fmt.Sprintf("tag%d", blob[0])
			}
			t.Run(rc.name+"/"+name, func(t *testing.T) {
				check := func(op string, err error) {
					t.Helper()
					switch {
					case len(blob) == 0 || blob[0] == 99:
						if err == nil || errors.Is(err, ErrIncompatibleMerge) {
							t.Fatalf("%s = %v, want a decode error", op, err)
						}
					case blob[0] == rc.tag:
						if err != nil {
							t.Fatalf("%s of the receiver's own kind: %v", op, err)
						}
					default:
						if !errors.Is(err, ErrIncompatibleMerge) {
							t.Fatalf("%s = %v, want ErrIncompatibleMerge", op, err)
						}
					}
				}
				m := newMergeNode(t, rc.opts...).(Merger)
				check("CheckMerge", m.CheckMerge(blob))
				check("Merge", m.Merge(blob))
			})
		}
	}
}
