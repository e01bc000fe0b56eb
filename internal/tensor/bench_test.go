package tensor

import (
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
		ModeGram(s, 0)
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
		MultiTTMSparseWorkers(s, nil, onlyMode(s.Order(), 0, m), 0)
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

// BenchmarkModeGramPlanned measures the steady-state planned sparse Gram:
// the per-mode plan is compiled on the first iteration and reused, so this
// reports the pure accumulate cost (compare BenchmarkModeGramSparse, which
// replans when the tensor changes between calls).
func BenchmarkModeGramPlanned(b *testing.B) {
	s := benchSparse5(b, 20000)
	ModeGram(s, 0) // compile the plan outside the timing loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ModeGram(s, 0)
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
