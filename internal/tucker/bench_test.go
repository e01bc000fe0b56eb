package tucker

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

func benchTensor(b *testing.B) *tensor.Sparse {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	shape := tensor.Shape{16, 16, 16, 16}
	d := tensor.NewDense(shape)
	for i := range d.Data {
		if rng.Float64() < 0.1 {
			d.Data[i] = rng.NormFloat64()
		}
	}
	return d.ToSparse(0)
}

// BenchmarkHOSVD decomposes one tensor per iteration; every mode's Gram
// compiles its own plan, as in every pipeline decomposition.
func BenchmarkHOSVD(b *testing.B) {
	x := benchTensor(b)
	ranks := UniformRanks(4, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HOSVD(x, ranks)
	}
}

// BenchmarkSketchedHOSVD measures the randomized-sketch fast path against
// BenchmarkHOSVD: the plain side pays plan compilation on the full nnz
// while the sketched side pays the two sketch passes plus compilation on
// the KeepFrac-sized sketch. keep=1 short-circuits to plain HOSVD (the
// baseline); smaller fractions cut every kernel's nnz.
func BenchmarkSketchedHOSVD(b *testing.B) {
	x := benchTensor(b)
	ranks := UniformRanks(4, 4)
	for _, keep := range []float64{1, 0.5, 0.1} {
		b.Run(fmt.Sprintf("keep=%g", keep), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := SketchedHOSVD(x, ranks, SketchOptions{KeepFrac: keep, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkHOOI(b *testing.B) {
	x := benchTensor(b)
	ranks := UniformRanks(4, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustHOOI(b, x, ranks, HOOIOptions{MaxIterations: 3})
	}
}

func BenchmarkReconstruct(b *testing.B) {
	x := benchTensor(b)
	d := HOSVD(x, UniformRanks(4, 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Reconstruct()
	}
}
