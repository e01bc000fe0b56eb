package tucker

import (
	"math"
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

// BenchmarkHOSVD decomposes one tensor per iteration; its Grams read the
// entries as stored, compiling nothing.
func BenchmarkHOSVD(b *testing.B) {
	x := benchTensor(b)
	ranks := UniformRanks(4, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HOSVD(x, ranks)
	}
}

func BenchmarkHOOI(b *testing.B) {
	x := benchTensor(b)
	ranks := UniformRanks(4, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustHOOI(b, x, ranks, HOOIOptions{})
	}
}

// BenchmarkHOOIFibres runs HOOI on a fibre-laid order-5 tensor — a
// conventional baseline at res 24: 2 000 random configurations of four
// parameters, each one whole time fibre along the last mode, stored one
// after another.
func BenchmarkHOOIFibres(b *testing.B) {
	const res, sims = 24, 2000
	rng := rand.New(rand.NewSource(1))
	x := tensor.NewSparse(tensor.Shape{res, res, res, res, res})
	x.Reserve(sims * res)
	idx := make([]int, 5)
	for s := 0; s < sims; s++ {
		for k := 0; k < 4; k++ {
			idx[k] = rng.Intn(res)
		}
		phase := rng.Float64()
		for t := 0; t < res; t++ {
			idx[4] = t
			x.Append(idx, math.Sin(phase+0.1*float64(t))+0.01*rng.NormFloat64())
		}
	}
	ranks := UniformRanks(5, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustHOOI(b, x, ranks, HOOIOptions{})
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
