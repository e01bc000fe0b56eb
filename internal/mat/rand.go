package mat

import "math/rand"

// Random returns an r×c matrix with entries drawn uniformly from [-1, 1).
// All randomness in this module flows through explicit *rand.Rand values so
// experiments are reproducible bit-for-bit.
func Random(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := range m.Data {
		m.Data[i] = 2*rng.Float64() - 1
	}
	return m
}

// RandomOrthonormal returns an r×c matrix (c ≤ r) with orthonormal columns,
// obtained by orthonormalising a random Gaussian matrix. Useful for
// constructing synthetic low-rank tensors with known factors in tests.
func RandomOrthonormal(rng *rand.Rand, r, c int) *Matrix {
	if c > r {
		panic("mat: RandomOrthonormal requires c <= r")
	}
	g := New(r, c)
	for i := range g.Data {
		g.Data[i] = rng.NormFloat64()
	}
	return Orthonormalize(g)
}

// Orthonormalize returns a matrix whose columns form an orthonormal basis
// for the column space of a, via modified Gram–Schmidt with
// re-orthogonalisation. Zero (dependent) columns are replaced by zeros so
// the output shape always matches the input; callers that need a strict
// basis should check column norms.
func Orthonormalize(a *Matrix) *Matrix {
	m, n := a.Rows, a.Cols
	q := a.Clone()
	for j := 0; j < n; j++ {
		// Two passes of Gram–Schmidt ("twice is enough").
		for pass := 0; pass < 2; pass++ {
			for p := 0; p < j; p++ {
				var dot float64
				for i := 0; i < m; i++ {
					dot += q.At(i, p) * q.At(i, j)
				}
				for i := 0; i < m; i++ {
					q.Set(i, j, q.At(i, j)-dot*q.At(i, p))
				}
			}
		}
		norm := ColNorm(q, j)
		if norm < 1e-12 {
			for i := 0; i < m; i++ {
				q.Set(i, j, 0)
			}
			continue
		}
		for i := 0; i < m; i++ {
			q.Set(i, j, q.At(i, j)/norm)
		}
	}
	return q
}
