package mat

import (
	"fmt"
	"math"

	"repro/internal/parallel"
)

// Add returns a + b. Shapes must match.
func Add(a, b *Matrix) *Matrix {
	checkSameShape("Add", a, b)
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = v + b.Data[i]
	}
	return out
}

// Average returns (a + b) / 2, the element-wise mean used by M2TD-AVG to
// fuse pivot-mode factor matrices.
func Average(a, b *Matrix) *Matrix {
	checkSameShape("Average", a, b)
	out := New(a.Rows, a.Cols)
	for i, v := range a.Data {
		out.Data[i] = (v + b.Data[i]) / 2
	}
	return out
}

// mulBlockK is the k-panel width of the blocked matmul kernel: b's rows
// are streamed panel by panel so a panel of b stays cache-resident while
// a block of output rows accumulates against it.
const mulBlockK = 128

// Mul returns the matrix product a·b. It runs on the package-default
// worker pool; see MulWorkers.
func Mul(a, b *Matrix) *Matrix { return MulWorkers(a, b, 0) }

// MulWorkers is the blocked, row-parallel matrix product: output rows are
// partitioned across workers (disjoint writes), and within a row block the
// k dimension is processed in ascending panels, so every output element
// accumulates its k contributions in exactly the serial ikj order —
// bit-identical results for any worker count. Fan-out is grained by the
// autotuned per-row cost, so the small I_n×I_n products in the
// eigensolver path never spawn goroutines they cannot amortise.
func MulWorkers(a, b *Matrix, workers int) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul shape mismatch %d×%d · %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	parallel.ForGrain(a.Rows, workers, parallel.AutoGrain(float64(a.Cols)*float64(b.Cols)), func(i0, i1 int) {
		for kk := 0; kk < a.Cols; kk += mulBlockK {
			kend := kk + mulBlockK
			if kend > a.Cols {
				kend = a.Cols
			}
			for i := i0; i < i1; i++ {
				arow := a.Row(i)
				orow := out.Row(i)
				for k := kk; k < kend; k++ {
					aik := arow[k]
					if aik == 0 {
						continue
					}
					brow := b.Row(k)
					for j := range brow {
						orow[j] += aik * brow[j]
					}
				}
			}
		}
	})
	return out
}

// MulTransA returns aᵀ·b. It runs on the package-default worker pool; see
// MulTransAWorkers.
func MulTransA(a, b *Matrix) *Matrix { return MulTransAWorkers(a, b, 0) }

// MulTransAWorkers is aᵀ·b with output rows (a's columns) partitioned
// across workers. Each worker walks k in ascending order for its own
// output rows, matching the serial accumulation order exactly.
func MulTransAWorkers(a, b *Matrix, workers int) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: MulTransA shape mismatch (%d×%d)ᵀ · %d×%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Cols, b.Cols)
	parallel.ForGrain(a.Cols, workers, parallel.AutoGrain(float64(a.Rows)*float64(b.Cols)), func(i0, i1 int) {
		for k := 0; k < a.Rows; k++ {
			arow := a.Row(k)
			brow := b.Row(k)
			for i := i0; i < i1; i++ {
				aki := arow[i]
				if aki == 0 {
					continue
				}
				orow := out.Row(i)
				for j, bkj := range brow {
					orow[j] += aki * bkj
				}
			}
		}
	})
	return out
}

// MulTransB returns a·bᵀ. It runs on the package-default worker pool; see
// MulTransBWorkers.
func MulTransB(a, b *Matrix) *Matrix { return MulTransBWorkers(a, b, 0) }

// MulTransBWorkers is a·bᵀ with output rows partitioned across workers;
// each row is an independent set of dot products, so results are
// bit-identical for any worker count.
func MulTransBWorkers(a, b *Matrix, workers int) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulTransB shape mismatch %d×%d · (%d×%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Rows)
	parallel.ForGrain(a.Rows, workers, parallel.AutoGrain(float64(b.Rows)*float64(a.Cols)), func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			arow := a.Row(i)
			orow := out.Row(i)
			for j := 0; j < b.Rows; j++ {
				brow := b.Row(j)
				var s float64
				for k, av := range arow {
					s += av * brow[k]
				}
				orow[j] = s
			}
		}
	})
	return out
}

// Transpose returns aᵀ.
func Transpose(a *Matrix) *Matrix {
	out := New(a.Cols, a.Rows)
	parallel.ForGrain(a.Rows, 0, parallel.AutoGrain(float64(a.Cols)), func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			for j := 0; j < a.Cols; j++ {
				out.Data[j*a.Rows+i] = a.Data[i*a.Cols+j]
			}
		}
	})
	return out
}

// Gram returns a·aᵀ (the row Gram matrix). HOSVD uses this on mode-n
// matricizations: left singular vectors of X are eigenvectors of X·Xᵀ.
// It runs on the package-default worker pool.
func Gram(a *Matrix) *Matrix { return MulTransB(a, a) }

// RowNorm returns the Euclidean norm of row i, the "energy" used by
// M2TD-SELECT's row-selection rule (Algorithm 5).
func RowNorm(a *Matrix, i int) float64 {
	var s float64
	for _, v := range a.Row(i) {
		s += v * v
	}
	return math.Sqrt(s)
}

// ColNorm returns the Euclidean norm of column j.
func ColNorm(a *Matrix, j int) float64 {
	var s float64
	for i := 0; i < a.Rows; i++ {
		v := a.Data[i*a.Cols+j]
		s += v * v
	}
	return math.Sqrt(s)
}

// IsOrthonormalCols reports whether the columns of a are orthonormal
// within tol (aᵀa ≈ I).
func IsOrthonormalCols(a *Matrix, tol float64) bool {
	g := MulTransA(a, a)
	for i := 0; i < g.Rows; i++ {
		for j := 0; j < g.Cols; j++ {
			want := 0.0
			if i == j {
				want = 1.0
			}
			if math.Abs(g.At(i, j)-want) > tol {
				return false
			}
		}
	}
	return true
}

func checkSameShape(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: %s shape mismatch %d×%d vs %d×%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
