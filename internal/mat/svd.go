package mat

import (
	"math"
	"sort"
)

// SVDResult holds a thin singular value decomposition a = U·diag(σ)·Vᵀ,
// with singular values sorted in decreasing order, U m×k and V n×k where
// k = min(m, n).
type SVDResult struct {
	U      *Matrix
	Values []float64
	V      *Matrix
}

// svdMaxSweeps bounds one-sided Jacobi sweeps; convergence is quadratic.
const svdMaxSweeps = 64

// SVD computes a thin singular value decomposition via the one-sided Jacobi
// method applied to the columns of a (or of aᵀ when m < n, transposing the
// roles of U and V afterwards). One-sided Jacobi computes every singular
// value to high relative accuracy, which matters for the accuracy metric in
// the M2TD experiments where reconstruction errors span many orders of
// magnitude.
func SVD(a *Matrix) SVDResult {
	if a.Rows >= a.Cols {
		u, s, v := onesidedJacobi(a)
		return SVDResult{U: u, Values: s, V: v}
	}
	u, s, v := onesidedJacobi(Transpose(a))
	return SVDResult{U: v, Values: s, V: u}
}

// onesidedJacobi factors a (m×n, m ≥ n) as U·diag(σ)·Vᵀ by orthogonalising
// the columns of a working copy with plane rotations accumulated into V.
func onesidedJacobi(a *Matrix) (*Matrix, []float64, *Matrix) {
	m, n := a.Rows, a.Cols
	w := a.Clone()
	v := Identity(n)

	var frob float64
	for _, x := range w.Data {
		frob += x * x
	}
	tol := 1e-30 * (frob + 1e-300)

	for sweep := 0; sweep < svdMaxSweeps; sweep++ {
		rotated := false
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				// Inner products of columns p and q.
				var alpha, beta, gamma float64
				for i := 0; i < m; i++ {
					wp := w.At(i, p)
					wq := w.At(i, q)
					alpha += wp * wp
					beta += wq * wq
					gamma += wp * wq
				}
				if gamma*gamma <= tol*math.Max(alpha*beta, 1e-300) || gamma == 0 {
					continue
				}
				rotated = true
				// Jacobi rotation that zeroes the (p,q) inner product.
				zeta := (beta - alpha) / (2 * gamma)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				for i := 0; i < m; i++ {
					wp := w.At(i, p)
					wq := w.At(i, q)
					w.Set(i, p, c*wp-s*wq)
					w.Set(i, q, s*wp+c*wq)
				}
				for i := 0; i < n; i++ {
					vp := v.At(i, p)
					vq := v.At(i, q)
					v.Set(i, p, c*vp-s*vq)
					v.Set(i, q, s*vp+c*vq)
				}
			}
		}
		if !rotated {
			break
		}
	}

	// Column norms of the rotated matrix are the singular values.
	sigma := make([]float64, n)
	for j := 0; j < n; j++ {
		sigma[j] = ColNorm(w, j)
	}
	// Sort in decreasing order, permuting columns of w (→U) and v together.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(x, y int) bool { return sigma[idx[x]] > sigma[idx[y]] })

	u := New(m, n)
	vOut := New(n, n)
	sOut := make([]float64, n)
	for newCol, oldCol := range idx {
		sOut[newCol] = sigma[oldCol]
		if sigma[oldCol] > 1e-300 {
			inv := 1 / sigma[oldCol]
			for i := 0; i < m; i++ {
				u.Set(i, newCol, w.At(i, oldCol)*inv)
			}
		}
		for i := 0; i < n; i++ {
			vOut.Set(i, newCol, v.At(i, oldCol))
		}
	}
	canonicalizeSVDSigns(u, vOut)
	return u, sOut, vOut
}

// canonicalizeSVDSigns flips paired columns of U and V so each U column's
// largest-magnitude entry is positive, keeping U·Σ·Vᵀ unchanged while making
// the factorisation deterministic.
func canonicalizeSVDSigns(u, v *Matrix) {
	for j := 0; j < u.Cols; j++ {
		maxAbs, maxVal := 0.0, 0.0
		for i := 0; i < u.Rows; i++ {
			if ab := math.Abs(u.At(i, j)); ab > maxAbs {
				maxAbs = ab
				maxVal = u.At(i, j)
			}
		}
		if maxVal < 0 {
			for i := 0; i < u.Rows; i++ {
				u.Set(i, j, -u.At(i, j))
			}
			if j < v.Cols {
				for i := 0; i < v.Rows; i++ {
					v.Set(i, j, -v.At(i, j))
				}
			}
		}
	}
}

// LeadingLeftSingularVectors returns the k leading left singular vectors of
// a as the columns of an m×k matrix.
//
// They are computed as the leading eigenvectors of the row Gram matrix
// a·aᵀ (m×m). For HOSVD matricizations m = Iₙ is small while the column
// count is the product of all other mode sizes, so the Gram route avoids
// ever rotating the (potentially enormous) unfolding. Callers that already
// hold a Gram matrix should use LeadingEigenvectors directly.
func LeadingLeftSingularVectors(a *Matrix, k int) *Matrix {
	return LeadingEigenvectors(Gram(a), k)
}
