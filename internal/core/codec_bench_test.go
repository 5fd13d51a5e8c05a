package core

import (
	"testing"

	"repro/internal/rng"
	"repro/internal/stream"
)

// BenchmarkOptimalCodec times Algorithm 2's checkpoint codec, the
// current (v3) MarshalBinary and UnmarshalBinary beside the test-only v2
// reference, at two shapes:
//   - tenant: ε = 0.01, m = 2¹⁹ after 8,192 ids, sample rate 1 — a pool
//     tenant's frame, written at every spill and read at every revive;
//   - saturated: ε = 0.01, m = 2²⁵ after 2²⁴ items — a full engine, as a
//     snapshot encodes it inside the shard barrier.
//
// Each sub-benchmark reports its frame size as B/frame.
func BenchmarkOptimalCodec(b *testing.B) {
	for _, shape := range []struct {
		name  string
		m     uint64
		items int
	}{
		{"tenant", 1 << 19, 1 << 13},
		{"saturated", 1 << 25, 1 << 24},
	} {
		o, err := NewOptimal(rng.New(7), Config{Eps: 0.01, Phi: 0.05, Delta: 0.1, M: shape.m, N: 1 << 30})
		if err != nil {
			b.Fatal(err)
		}
		z := stream.NewZipf(rng.New(45), 1<<20, 1.1)
		for range shape.items {
			o.Insert((z.Next()*0x2545F491 + 0x1B873593) & (1<<30 - 1))
		}
		v3, err := o.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		for _, codec := range []struct {
			name   string
			encode func() []byte
			frame  []byte
		}{
			{"v3", func() []byte { blob, _ := o.MarshalBinary(); return blob }, v3},
			{"v2", func() []byte { return marshalOptimalV2(o) }, marshalOptimalV2(o)},
		} {
			b.Run(shape.name+"/"+codec.name+"/marshal", func(b *testing.B) {
				for b.Loop() {
					codec.encode()
				}
				b.ReportMetric(float64(len(codec.frame)), "B/frame")
			})
			b.Run(shape.name+"/"+codec.name+"/unmarshal", func(b *testing.B) {
				for b.Loop() {
					var r Optimal
					if err := r.UnmarshalBinary(codec.frame); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(codec.frame)), "B/frame")
			})
		}
	}
}
