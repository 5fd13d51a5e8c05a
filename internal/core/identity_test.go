package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/stream"
)

// The digests below pin Algorithm 2's observable behaviour: every random
// draw, table cell and report value. They were recorded on the dense
// reference layout (a map-based T1, a DIV per bucket hash, one T3 row per
// bucket, a uint32 per T2 cell), so any layout of the per-sample work must
// reproduce them bit for bit. The recorded checkpoint digests are of the
// v2 encoding, which the test-only marshalOptimalV2 still writes; each
// case also pins the digest of the current (v3) frame, and decoding that
// frame must give back the state the v2 digest was recorded over. Each
// case also pins ModelBits, which the digests do not cover: it charges
// every cell at its full value, so a layout that charged an escaped cell
// at its byte would pass the digests and still under-charge.

// identityStream is a Zipf(1.1) stream over 2²⁰ ranks, scattered over
// 2³⁰ ids by a fixed bijection so hot items do not cluster.
func identityStream(seed uint64, n int) []uint64 {
	z := stream.NewZipf(rng.New(seed), 1<<20, 1.1)
	xs := make([]uint64, n)
	for i := range xs {
		xs[i] = (z.Next()*0x2545F491 + 0x1B873593) & (1<<30 - 1)
	}
	return xs
}

// digest returns the hex SHA-256 of b.
func digest(b []byte) string {
	d := sha256.Sum256(b)
	return hex.EncodeToString(d[:])
}

// reportDigest returns the digest of o's report.
func reportDigest(o *Optimal) string { return estimatesDigest(o.Report()) }

// estimatesDigest returns the digest of a report: item and float64 bits
// per entry, in report order.
func estimatesDigest(es []ItemEstimate) string {
	var rep []byte
	for _, e := range es {
		rep = binary.LittleEndian.AppendUint64(rep, e.Item)
		rep = binary.LittleEndian.AppendUint64(rep, math.Float64bits(e.F))
	}
	return digest(rep)
}

func TestOptimalIdentityDigests(t *testing.T) {
	sampled := Config{Eps: 0.002, Phi: 0.02, Delta: 0.1, M: 1 << 21, N: 1 << 30}
	skip := Config{Eps: 0.01, Phi: 0.05, Delta: 0.1, M: 1 << 28, N: 1 << 30}
	newOpt := func(t *testing.T, cfg Config, seed uint64) *Optimal {
		o, err := NewOptimal(rng.New(seed), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
	cases := []struct {
		name             string
		build            func(t *testing.T) *Optimal
		ckpt, v3, report string
		modelBits        int64
	}{
		{
			name: "sampled p=1",
			build: func(t *testing.T) *Optimal {
				o := newOpt(t, sampled, 7)
				for _, x := range identityStream(45, 1<<21) {
					o.Insert(x)
				}
				return o
			},
			ckpt:      "27ab9379157f20633b68c6efbdb19a95aa7d469a0ae69ed6b38767971ad4f58c",
			v3:        "758b9963a0a825199360a25a3da7013109c6a6997648f4dd908843fbe314587d",
			report:    "9bef8e91fe99d6eb8c99c9958c717d892901b3203ec7541c63b732ed5ba1fdc8",
			modelBits: 664619,
		},
		{
			name: "skip path",
			build: func(t *testing.T) *Optimal {
				o := newOpt(t, skip, 8)
				for _, x := range identityStream(46, 1<<22) {
					o.Insert(x)
				}
				return o
			},
			ckpt:      "c82a917317bf1e3c30937c2d9e991313067800f651c4a1c72f3328be98bd659f",
			v3:        "f6a21bed9bf61a528d92a239a5411a02c3afde02dce9de787b8193659392fa33",
			report:    "5c484b0a4c533d183085b287fd42380e9d1d0dae06232b74e9f590c87b3092cd",
			modelBits: 114754,
		},
		{
			name: "two-instance merge",
			build: func(t *testing.T) *Optimal {
				a, b := newOpt(t, sampled, 9), newOpt(t, sampled, 9)
				xs := identityStream(47, 1<<20)
				for _, x := range xs[:len(xs)/2] {
					a.Insert(x)
				}
				for _, x := range xs[len(xs)/2:] {
					b.Insert(x)
				}
				if err := a.Merge(b); err != nil {
					t.Fatal(err)
				}
				return a
			},
			ckpt:      "72d9569dae1135d274845e64ad4a9e5d402617896cded7033d3e8571ef5f12ae",
			v3:        "92b038560bdd3767f293746d5e0d5c6f2d06257c6abb63a272ac787dac1d722f",
			report:    "0186953154d92d430e38157ee3c04c2f82323b1749cae481c87b34a42374f198",
			modelBits: 1247163,
		},
		{
			name: "half the declared length",
			build: func(t *testing.T) *Optimal {
				o := newOpt(t, sampled, 10)
				for _, x := range identityStream(48, 1<<20) {
					o.Insert(x)
				}
				return o
			},
			ckpt:      "70f15370605fc51faacaec66635c8b022d1e9367338415e444c76682bf4dec3e",
			v3:        "e63a6158172f9f9976ca2e6b2e35653a4d40a7071a8f0d0703b6945b0290175a",
			report:    "357ae9e962772a6acea3986e2c67a9813cf304a766373e5a313683b7a41399c1",
			modelBits: 641020,
		},
		{
			name: "restore then keep inserting",
			build: func(t *testing.T) *Optimal {
				o := newOpt(t, sampled, 11)
				xs := identityStream(49, 1<<20)
				for _, x := range xs[:len(xs)/2] {
					o.Insert(x)
				}
				blob, err := o.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				var r Optimal
				if err := r.UnmarshalBinary(blob); err != nil {
					t.Fatal(err)
				}
				for _, x := range xs[len(xs)/2:] {
					r.Insert(x)
				}
				return &r
			},
			ckpt:      "8f17b89aa60fdd05d1fdef383b977fc58828a50d8d92c7f2d1d7a696d6eb298b",
			v3:        "ea0653c25262b5eb18e0b7e7ccf9f0d0ae659e07c596025e42ffc3c382451585",
			report:    "29e3e941439cf74e729eb93738498c83fb41c33023118891f5f5b4cba819701d",
			modelBits: 642422,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := c.build(t)
			if len(o.Report()) == 0 {
				t.Fatal("empty report: the case pins nothing")
			}
			if got := digest(marshalOptimalV2(o)); got != c.ckpt {
				t.Errorf("v2 checkpoint digest %s, want %s", got, c.ckpt)
			}
			blob, err := o.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if got := digest(blob); got != c.v3 {
				t.Errorf("v3 checkpoint digest %s, want %s", got, c.v3)
			}
			var r Optimal
			if err := r.UnmarshalBinary(blob); err != nil {
				t.Fatal(err)
			}
			if got := digest(marshalOptimalV2(&r)); got != c.ckpt {
				t.Errorf("v3 frame decodes to a state of v2 digest %s, want %s", got, c.ckpt)
			}
			if bits := r.ModelBits(); bits != c.modelBits {
				t.Errorf("decoded v3 frame: ModelBits %d, want %d", bits, c.modelBits)
			}
			if got := reportDigest(o); got != c.report {
				t.Errorf("report digest %s, want %s", got, c.report)
			}
			if bits := o.ModelBits(); bits != c.modelBits {
				t.Errorf("ModelBits %d, want %d", bits, c.modelBits)
			}
		})
	}
}

// The digests below pin Algorithm 1 and ε-Maximum the same way. They
// were recorded when both solvers kept T1 in a Go map of their own.
// Algorithm 1 then broke a tie among T2's smallest T1 counts in map
// order, so its bytes could differ between runs, and its cases use
// streams on which no T2 eviction ties: stairStream sampled at p = 1.

// stairStream interleaves two heavy ids, at the positions divisible by
// 3 and at the other positions divisible by 5, with runs of fresh ids,
// each run one longer than the last. Every fresh id then ends its run with a larger T1
// count than any older one, so the T2 members' counts stay distinct.
func stairStream(n int) []uint64 {
	xs := make([]uint64, 0, n)
	id, run, left := uint64(0), 1, 1
	for i := 0; len(xs) < n; i++ {
		switch {
		case i%3 == 0:
			xs = append(xs, 0x5EED)
		case i%5 == 0:
			xs = append(xs, 0xF00D)
		default:
			if left == 0 {
				id++
				run++
				left = run
			}
			xs = append(xs, (id*0x2545F491+0x1B873593)&(1<<30-1))
			left--
		}
	}
	return xs
}

func TestSimpleIdentityDigests(t *testing.T) {
	// M ≤ 6ℓ, so every item is sampled.
	cfg := Config{Eps: 0.05, Phi: 0.1, Delta: 0.05, M: 1 << 16, N: 1 << 30}
	newSimple := func(t *testing.T, seed uint64) *SimpleList {
		a, err := NewSimpleList(rng.New(seed), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	newMax := func(t *testing.T, cfg Config, seed uint64) *Maximum {
		a, err := NewMaximum(rng.New(seed), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	// pinned is what a case exposes: its bytes, its report and its bits.
	type pinned interface {
		MarshalBinary() ([]byte, error)
		ModelBits() int64
	}
	report := func(p pinned) string {
		switch a := p.(type) {
		case *SimpleList:
			return estimatesDigest(a.Report())
		case *Maximum:
			item, f, ok := a.Report()
			if !ok {
				return ""
			}
			return estimatesDigest([]ItemEstimate{{Item: item, F: f}})
		}
		panic("unreachable")
	}
	cases := []struct {
		name         string
		build        func(t *testing.T) pinned
		ckpt, report string
		modelBits    int64
	}{
		{
			name: "simple serial",
			build: func(t *testing.T) pinned {
				a := newSimple(t, 7)
				for _, x := range stairStream(1 << 16) {
					a.Insert(x)
				}
				return a
			},
			ckpt:      "c1a595f6f2f568c930fb51b9e503c762db1aff909c18a769878a8bccb3899d05",
			report:    "5887205aec54338f0c9fb32d05d7716b727c3bd2a27cb0b448ec061b8cbfaa43",
			modelBits: 4705,
		},
		{
			name: "simple same-seed merge",
			build: func(t *testing.T) pinned {
				a, b := newSimple(t, 9), newSimple(t, 9)
				xs := stairStream(1 << 16)
				for _, x := range xs[:len(xs)/2] {
					a.Insert(x)
				}
				for _, x := range xs[len(xs)/2:] {
					b.Insert(x)
				}
				if err := a.Merge(b); err != nil {
					t.Fatal(err)
				}
				return a
			},
			ckpt:      "e2fd6adaf134e760248e55458b3929e9883d3f6b17a3ed0bcb6d2b3e2a286c6d",
			report:    "5887205aec54338f0c9fb32d05d7716b727c3bd2a27cb0b448ec061b8cbfaa43",
			modelBits: 4605,
		},
		{
			name: "simple restore then keep inserting",
			build: func(t *testing.T) pinned {
				a := newSimple(t, 11)
				xs := stairStream(1 << 16)
				for _, x := range xs[:len(xs)/2] {
					a.Insert(x)
				}
				blob, err := a.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				var r SimpleList
				if err := r.UnmarshalBinary(blob); err != nil {
					t.Fatal(err)
				}
				for _, x := range xs[len(xs)/2:] {
					r.Insert(x)
				}
				return &r
			},
			ckpt:      "a73af4a30f74ed64f292ef6617a454b5e81104e9a5130296d29af5afbab58ce8",
			report:    "5887205aec54338f0c9fb32d05d7716b727c3bd2a27cb0b448ec061b8cbfaa43",
			modelBits: 4705,
		},
		{
			name: "maximum p=1",
			build: func(t *testing.T) pinned {
				a := newMax(t, cfg, 12)
				for _, x := range stairStream(1 << 16) {
					a.Insert(x)
				}
				return a
			},
			ckpt:      "b107aa4350a5f1f5cc814f372a6a63b6e22e9d50687e52465c3947a8019ac4ce",
			report:    "54bedc0966e88c814aa486a80255ce5be31292b40738fd9b2ae6201691a5d814",
			modelBits: 4075,
		},
		{
			name: "maximum skip path",
			build: func(t *testing.T) pinned {
				a := newMax(t, Config{Eps: 0.01, Delta: 0.1, M: 1 << 26, N: 1 << 30}, 13)
				for _, x := range identityStream(50, 1<<22) {
					a.Insert(x)
				}
				return a
			},
			ckpt:      "6871161788ec5eebf856f3c227e7d6a3849525b24f9769bd3fdd5d4e5c4162b5",
			report:    "c02dff9601b403e81d3be7c06fbc70916023b475eb937dcfad14bd6e358aaf96",
			modelBits: 11680,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := c.build(t)
			rep := report(p)
			if rep == "" || rep == digest(nil) {
				t.Fatal("empty report: the case pins nothing")
			}
			blob, err := p.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if got := digest(blob); got != c.ckpt {
				t.Errorf("checkpoint digest %s, want %s", got, c.ckpt)
			}
			if rep != c.report {
				t.Errorf("report digest %s, want %s", rep, c.report)
			}
			if bits := p.ModelBits(); bits != c.modelBits {
				t.Errorf("ModelBits %d, want %d", bits, c.modelBits)
			}
		})
	}
}
