package seckey

import (
	"fmt"
	"testing"

	"iotmpc/internal/field"
)

func BenchmarkSealShare(b *testing.B) {
	s := NewStore(MasterFromSeed(1))
	key, err := s.PairKey(1, 2)
	if err != nil {
		b.Fatal(err)
	}
	ctx := PacketContext{Round: 1, Sender: 1, Receiver: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Slot = uint32(i)
		if _, err := SealShare(key, ctx, field.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOpenShare(b *testing.B) {
	s := NewStore(MasterFromSeed(1))
	key, err := s.PairKey(1, 2)
	if err != nil {
		b.Fatal(err)
	}
	ctx := PacketContext{Round: 1, Sender: 1, Receiver: 2, Slot: 9}
	sealed, err := SealShare(key, ctx, field.New(77))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := OpenShare(key, ctx, sealed); err != nil {
			b.Fatal(err)
		}
	}
}

// Vector sealing benchmarks, exported to CI as BENCH_seal.json. The
// package-level SealVector/OpenVector expand the key on every call, as a
// one-shot caller does; the Sealer benchmarks are what a round pays per
// packet, since a bootstrap expands every pairwise key once and rounds seal
// through the expanded Sealer. The wins to track are SealVector(L) staying
// far below L×SealShare (one CTR pass, one CMAC pass and one tag regardless
// of L) and the Sealer path staying far below the per-call expansion.

// benchVectorLens are the vector lengths the CI sealing bench sweeps: 1 is
// the scalar-equivalent case, 4 a typical multi-sensor reading, and 16
// shows the curve past the protocol's 14-element frame bound (seckey
// itself has no frame limit).
var benchVectorLens = []int{1, 4, 16}

func benchValues(l int) []field.Element {
	values := make([]field.Element, l)
	for i := range values {
		values[i] = field.New(uint64(i) * 0x9e3779b9)
	}
	return values
}

func BenchmarkSealVector(b *testing.B) {
	s := NewStore(MasterFromSeed(1))
	key, err := s.PairKey(1, 2)
	if err != nil {
		b.Fatal(err)
	}
	for _, l := range benchVectorLens {
		b.Run(fmt.Sprintf("L=%d", l), func(b *testing.B) {
			values := benchValues(l)
			ctx := PacketContext{Round: 1, Sender: 1, Receiver: 2}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx.Slot = uint32(i)
				if _, err := SealVector(key, ctx, values); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkOpenVector(b *testing.B) {
	s := NewStore(MasterFromSeed(1))
	key, err := s.PairKey(1, 2)
	if err != nil {
		b.Fatal(err)
	}
	for _, l := range benchVectorLens {
		b.Run(fmt.Sprintf("L=%d", l), func(b *testing.B) {
			ctx := PacketContext{Round: 1, Sender: 1, Receiver: 2, Slot: 9}
			sealed, err := SealVector(key, ctx, benchValues(l))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := OpenVector(key, ctx, l, sealed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSealerSealVector(b *testing.B) {
	key, err := NewStore(MasterFromSeed(1)).PairKey(1, 2)
	if err != nil {
		b.Fatal(err)
	}
	s := NewSealer(key)
	for _, l := range benchVectorLens {
		b.Run(fmt.Sprintf("L=%d", l), func(b *testing.B) {
			values := benchValues(l)
			ctx := PacketContext{Round: 1, Sender: 1, Receiver: 2}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx.Slot = uint32(i)
				if _, err := s.SealVector(ctx, values); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSealerOpenVector(b *testing.B) {
	key, err := NewStore(MasterFromSeed(1)).PairKey(1, 2)
	if err != nil {
		b.Fatal(err)
	}
	s := NewSealer(key)
	for _, l := range benchVectorLens {
		b.Run(fmt.Sprintf("L=%d", l), func(b *testing.B) {
			ctx := PacketContext{Round: 1, Sender: 1, Receiver: 2, Slot: 9}
			sealed, err := s.SealVector(ctx, benchValues(l))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.OpenVector(ctx, l, sealed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSealScalarTimes is the straw man SealVector replaces: sealing an
// L-element reading as L independent scalar packets (L cipher setups, L CMAC
// passes, L tags). Divide by BenchmarkSealVector at the same L for the
// per-round batching factor.
func BenchmarkSealScalarTimes(b *testing.B) {
	s := NewStore(MasterFromSeed(1))
	key, err := s.PairKey(1, 2)
	if err != nil {
		b.Fatal(err)
	}
	for _, l := range benchVectorLens {
		b.Run(fmt.Sprintf("L=%d", l), func(b *testing.B) {
			values := benchValues(l)
			ctx := PacketContext{Round: 1, Sender: 1, Receiver: 2}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k, v := range values {
					ctx.Slot = uint32(i*len(values) + k)
					if _, err := SealShare(key, ctx, v); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkPairKeyDerivation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewStore(MasterFromSeed(uint64(i)))
		if _, err := s.PairKey(i%40, (i+1)%40+1); err != nil {
			b.Fatal(err)
		}
	}
}
