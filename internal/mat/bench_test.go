package mat

import (
	"math/rand"
	"strconv"
	"testing"
)

func benchMatrices(n int) (*Matrix, *Matrix) {
	rng := rand.New(rand.NewSource(1))
	return Random(rng, n, n), Random(rng, n, n)
}

func BenchmarkMul64(b *testing.B) {
	x, y := benchMatrices(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Mul(x, y)
	}
}

func BenchmarkMulTransB64(b *testing.B) {
	x, y := benchMatrices(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MulTransB(x, y)
	}
}

func BenchmarkGramWide(b *testing.B) {
	// HOSVD shape: few rows, many columns.
	rng := rand.New(rand.NewSource(2))
	x := Random(rng, 20, 4000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Gram(x)
	}
}

func BenchmarkSymEig(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{16, 64} {
		a := RandomSymmetric(rng, n)
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				SymEig(a)
			}
		})
	}
}

func BenchmarkSVD(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{16, 64} {
		a := Random(rng, n, n)
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				SVD(a)
			}
		})
	}
}
