package store

import (
	"testing"

	"repro/internal/tensor"
)

// BenchmarkStoreSparse measures the sparse codec on the object the
// process engine moves most: one res-8 join shard (8 192 order-5 cells,
// ≈ 229 kB), saved with the full temp+fsync+rename protocol and loaded
// with the CRC verified.
func BenchmarkStoreSparse(b *testing.B) {
	shape := tensor.Shape{8, 8, 8, 8, 8}
	x := tensor.NewSparse(shape)
	idx := make([]int, 5)
	for i := 0; i < 8192; i++ {
		shape.MultiIndex(i*3, idx)
		x.Append(idx, float64(i)*0.25)
	}
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("save", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := s.SaveSparse("shard", x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("load", func(b *testing.B) {
		if err := s.SaveSparse("shard", x); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			got, err := s.LoadSparse("shard")
			if err != nil {
				b.Fatal(err)
			}
			if got.NNZ() != x.NNZ() {
				b.Fatalf("loaded %d cells", got.NNZ())
			}
		}
	})
}
