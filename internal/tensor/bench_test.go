package tensor

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/mat"
)

func benchSparse5(b *testing.B, nnz int) *Sparse {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	return randomSparse(rng, Shape{12, 12, 12, 12, 12}, nnz)
}

func BenchmarkModeGramSparse(b *testing.B) {
	s := benchSparse5(b, 20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ModeGramWorkers(s, 0, 0)
	}
}

func BenchmarkModeGramDense(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	d := randomDense(rng, Shape{12, 12, 12, 12})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ModeGramDenseWorkers(d, 0, 0)
	}
}

func BenchmarkTTMSparse(b *testing.B) {
	s := benchSparse5(b, 20000)
	m := mat.Random(rand.New(rand.NewSource(3)), 4, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MultiTTMSparseWorkers(s, onlyMode(s.Order(), 0, m), 0)
	}
}

func BenchmarkTTMDense(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	d := randomDense(rng, Shape{12, 12, 12, 12})
	m := mat.Random(rng, 4, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TTM(d, 0, m)
	}
}

func BenchmarkMatricize(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	d := randomDense(rng, Shape{12, 12, 12, 12})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Matricize(d, 1)
	}
}

func BenchmarkTuckerReconstruct(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	core := randomDense(rng, Shape{4, 4, 4, 4})
	us := make([]*mat.Matrix, 4)
	for n := range us {
		us[n] = mat.RandomOrthonormal(rng, 12, 4)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TuckerReconstruct(core, us)
	}
}

// BenchmarkModeGramDenseWorkers is the regression benchmark for the
// hoisted nonzero-fiber enumeration: before the fix every worker re-walked
// the whole tensor (O(workers·total)), so higher worker counts got slower
// per element; after it the enumeration runs once per call.
func BenchmarkModeGramDenseWorkers(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	d := randomDense(rng, Shape{12, 12, 12, 12})
	for i := 0; i < len(d.Data); i += 3 {
		d.Data[i] = 0 // leave nonzero-fiber hoisting work to do
	}
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(benchName("workers", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ModeGramDenseWorkers(d, 0, w)
			}
		})
	}
}

func benchName(k string, v int) string {
	return k + "=" + strconv.Itoa(v)
}

func BenchmarkSparseDedup(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	base := randomSparse(rng, Shape{16, 16, 16}, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := base.Clone()
		// Duplicate every entry once.
		s.Idx = append(s.Idx, base.Idx...)
		s.Vals = append(s.Vals, base.Vals...)
		b.StartTimer()
		s.Dedup(SumDuplicates)
	}
}

// fibreLaid builds a tensor the way partition and ensemble store one: one
// whole time fibre per simulation, simulations one after another, the time
// index ascending inside each. configs lists each simulation's parameter
// indices; timeMode is where the time index goes in a cell's multi-index.
func fibreLaid(shape Shape, timeMode int, configs [][]int, seed int64) *Sparse {
	rng := rand.New(rand.NewSource(seed))
	s := NewSparse(shape)
	s.Reserve(len(configs) * shape[timeMode])
	idx := make([]int, shape.Order())
	for _, c := range configs {
		copy(idx[:timeMode], c[:timeMode])
		copy(idx[timeMode+1:], c[timeMode:])
		phase := rng.Float64()
		for t := 0; t < shape[timeMode]; t++ {
			idx[timeMode] = t
			s.Append(idx, math.Sin(phase+0.1*float64(t))+0.01*rng.NormFloat64())
		}
	}
	return s
}

// pivotSub is a pivot-t sub-tensor at resolution res: shape (res, res, res)
// with time the leading (pivot) mode, every configuration of the two free
// parameters simulated once.
func pivotSub(res int) *Sparse {
	return fibreLaid(Shape{res, res, res}, 0, allConfigs(res, res), int64(res))
}

// allConfigs lists every index pair of an a×b grid, the last fastest.
func allConfigs(a, b int) [][]int {
	configs := make([][]int, 0, a*b)
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			configs = append(configs, []int{i, j})
		}
	}
	return configs
}

// baselineShape is a conventional baseline at resolution res: sims random
// configurations of four parameters, time the last mode.
func baselineShape(res, sims int) *Sparse {
	rng := rand.New(rand.NewSource(int64(res)))
	configs := make([][]int, sims)
	for i := range configs {
		configs[i] = []int{rng.Intn(res), rng.Intn(res), rng.Intn(res), rng.Intn(res)}
	}
	return fibreLaid(Shape{res, res, res, res, res}, 4, configs, int64(sims))
}

// BenchmarkModeGramFibres takes every mode's Gram, serially, of the
// fibre-laid tensors a campaign decomposes: the res-24 (factored-sim) and
// res-70 pivot-t sub-tensors and the res-70 baseline shape (9 800
// configurations × 70 time steps).
func BenchmarkModeGramFibres(b *testing.B) {
	for _, c := range []struct {
		name string
		x    func() *Sparse
	}{
		{"res24-sub", func() *Sparse { return pivotSub(24) }},
		{"res70-sub", func() *Sparse { return pivotSub(70) }},
		{"res70-baseline", func() *Sparse { return baselineShape(70, 9800) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			x := c.x()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for n := 0; n < x.Order(); n++ {
					ModeGramWorkers(x, n, 1)
				}
			}
		})
	}
}
