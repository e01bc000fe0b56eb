package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Test-side helpers: the norms and random symmetric inputs the surviving
// eigen/SVD tests check against. Production needs none of them.

func norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

func diffNorm(a, b *Matrix) float64 {
	d := make([]float64, len(a.Data))
	for i, v := range a.Data {
		d[i] = v - b.Data[i]
	}
	return norm2(d)
}

// RandomSymmetric returns an n×n symmetric matrix with entries uniform in [-1, 1).
func RandomSymmetric(rng *rand.Rand, n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := 2*rng.Float64() - 1
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

// RandomSPD returns a symmetric positive-definite matrix aᵀa + n·I.
func RandomSPD(rng *rand.Rand, n int) *Matrix {
	a := Random(rng, n, n)
	spd := MulTransA(a, a)
	for i := 0; i < n; i++ {
		spd.Set(i, i, spd.At(i, i)+float64(n))
	}
	return spd
}

func reconstructSVD(r SVDResult) *Matrix {
	k := len(r.Values)
	us := r.U.Clone()
	for j := 0; j < k; j++ {
		for i := 0; i < us.Rows; i++ {
			us.Set(i, j, us.At(i, j)*r.Values[j])
		}
	}
	return MulTransB(us, r.V)
}

func TestOrthonormalize(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := Random(rng, 7, 4)
	q := Orthonormalize(a)
	if !IsOrthonormalCols(q, 1e-10) {
		t.Fatal("Orthonormalize output not orthonormal")
	}
	// Column space preserved: each original column is in span(q).
	proj := Mul(q, MulTransA(q, a))
	if !proj.Equal(a, 1e-8) {
		t.Fatal("Orthonormalize changed the column space")
	}
}

func TestOrthonormalizeDependentColumns(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}, {3, 6}})
	q := Orthonormalize(a)
	if n := ColNorm(q, 0); math.Abs(n-1) > 1e-10 {
		t.Fatalf("first column norm = %v, want 1", n)
	}
	if n := ColNorm(q, 1); n > 1e-10 {
		t.Fatalf("dependent column norm = %v, want 0", n)
	}
}

func TestSymEigDiagonal(t *testing.T) {
	d := FromRows([][]float64{{3, 0, 0}, {0, -1, 0}, {0, 0, 2}})
	eig := SymEig(d)
	want := []float64{3, 2, -1}
	for i, v := range want {
		if math.Abs(eig.Values[i]-v) > 1e-12 {
			t.Fatalf("eigenvalues = %v, want %v", eig.Values, want)
		}
	}
}

func TestSymEigKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	a := FromRows([][]float64{{2, 1}, {1, 2}})
	eig := SymEig(a)
	if math.Abs(eig.Values[0]-3) > 1e-12 || math.Abs(eig.Values[1]-1) > 1e-12 {
		t.Fatalf("eigenvalues = %v, want [3 1]", eig.Values)
	}
	// Eigenvector for λ=3 is (1,1)/√2 up to sign.
	v0 := []float64{eig.Vectors.At(0, 0), eig.Vectors.At(1, 0)}
	if math.Abs(math.Abs(v0[0])-1/math.Sqrt2) > 1e-10 || math.Abs(v0[0]-v0[1]) > 1e-10 {
		t.Fatalf("leading eigenvector = %v", v0)
	}
}

func TestSymEigReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 2, 5, 10, 25} {
		a := RandomSymmetric(rng, n)
		eig := SymEig(a)
		// a ≈ V·diag(λ)·Vᵀ
		vd := eig.Vectors.Clone()
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				vd.Set(i, j, vd.At(i, j)*eig.Values[j])
			}
		}
		recon := MulTransB(vd, eig.Vectors)
		if !recon.Equal(a, 1e-9) {
			t.Errorf("n=%d: V·Λ·Vᵀ != a (err %g)", n, diffNorm(recon, a))
		}
		if !IsOrthonormalCols(eig.Vectors, 1e-10) {
			t.Errorf("n=%d: eigenvectors not orthonormal", n)
		}
		// Sorted decreasing.
		for i := 1; i < n; i++ {
			if eig.Values[i] > eig.Values[i-1]+1e-12 {
				t.Errorf("n=%d: eigenvalues not sorted: %v", n, eig.Values)
			}
		}
	}
}

func TestSymEigNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SymEig of non-square matrix did not panic")
		}
	}()
	SymEig(New(2, 3))
}

func TestLeadingEigenvectors(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := RandomSPD(rng, 8)
	full := SymEig(a)
	lead := LeadingEigenvectors(a, 3)
	if lead.Rows != 8 || lead.Cols != 3 {
		t.Fatalf("dims = %d×%d, want 8×3", lead.Rows, lead.Cols)
	}
	for j := 0; j < 3; j++ {
		for i := 0; i < 8; i++ {
			if math.Abs(lead.At(i, j)-full.Vectors.At(i, j)) > 1e-12 {
				t.Fatal("LeadingEigenvectors disagrees with SymEig columns")
			}
		}
	}
	// Padding when k > n.
	pad := LeadingEigenvectors(a, 10)
	if pad.Cols != 10 || pad.At(0, 9) != 0 {
		t.Fatal("LeadingEigenvectors should zero-pad beyond n")
	}
}

func TestSVDKnownMatrix(t *testing.T) {
	// diag(3, 2) embedded in 3×2: singular values are 3, 2.
	a := FromRows([][]float64{{3, 0}, {0, 2}, {0, 0}})
	r := SVD(a)
	if math.Abs(r.Values[0]-3) > 1e-12 || math.Abs(r.Values[1]-2) > 1e-12 {
		t.Fatalf("singular values = %v, want [3 2]", r.Values)
	}
}

func TestSVDReconstructionAllShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, dims := range [][2]int{{4, 4}, {6, 3}, {3, 6}, {1, 5}, {5, 1}, {10, 7}} {
		a := Random(rng, dims[0], dims[1])
		r := SVD(a)
		if !reconstructSVD(r).Equal(a, 1e-9) {
			t.Errorf("SVD(%d×%d) does not reconstruct", dims[0], dims[1])
		}
		if !IsOrthonormalCols(r.U, 1e-9) {
			t.Errorf("SVD(%d×%d): U not orthonormal", dims[0], dims[1])
		}
		if !IsOrthonormalCols(r.V, 1e-9) {
			t.Errorf("SVD(%d×%d): V not orthonormal", dims[0], dims[1])
		}
		for i := 1; i < len(r.Values); i++ {
			if r.Values[i] > r.Values[i-1]+1e-12 {
				t.Errorf("SVD(%d×%d): singular values not sorted: %v", dims[0], dims[1], r.Values)
			}
		}
		for _, s := range r.Values {
			if s < 0 {
				t.Errorf("SVD(%d×%d): negative singular value %v", dims[0], dims[1], s)
			}
		}
	}
}

func TestSVDZeroMatrix(t *testing.T) {
	r := SVD(New(3, 2))
	for _, s := range r.Values {
		if s != 0 {
			t.Fatalf("zero matrix singular values = %v", r.Values)
		}
	}
}

func TestSVDRankOne(t *testing.T) {
	// x·yᵀ has exactly one nonzero singular value ‖x‖·‖y‖.
	x := []float64{1, 2, 2}
	y := []float64{3, 4}
	a := New(3, 2)
	for i, xi := range x {
		for j, yj := range y {
			a.Set(i, j, xi*yj)
		}
	}
	r := SVD(a)
	if math.Abs(r.Values[0]-15) > 1e-10 { // ‖x‖=3, ‖y‖=5
		t.Fatalf("rank-1 leading singular value = %v, want 15", r.Values[0])
	}
	if r.Values[1] > 1e-10 {
		t.Fatalf("rank-1 second singular value = %v, want 0", r.Values[1])
	}
}

func TestLeadingLeftSingularVectorsMatchSVD(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	a := Random(rng, 5, 40)
	u := LeadingLeftSingularVectors(a, 3)
	svd := SVD(a)
	// Compare subspaces via projector difference (vectors may differ in sign
	// even after canonicalisation when ties occur, so compare U·Uᵀ).
	p1 := MulTransB(u, u)
	u2 := svd.U.FirstColumns(3)
	p2 := MulTransB(u2, u2)
	if !p1.Equal(p2, 1e-8) {
		t.Fatal("Gram-route leading left singular vectors span a different subspace than SVD")
	}
}

func TestSVDSingularValuesMatchEigenvalues(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := Random(rng, 6, 9)
	svd := SVD(a)
	eig := SymEig(Gram(a))
	for i := range svd.Values {
		if math.Abs(svd.Values[i]*svd.Values[i]-eig.Values[i]) > 1e-9 {
			t.Fatalf("σ² %v != Gram eigenvalues %v", svd.Values, eig.Values[:len(svd.Values)])
		}
	}
}

// Property: the Frobenius norm equals the 2-norm of the singular values.
func TestSVDFrobeniusIdentityQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Random(rng, 4, 5)
		r := SVD(a)
		return math.Abs(norm2(a.Data)-norm2(r.Values)) < 1e-10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(18))}); err != nil {
		t.Error(err)
	}
}

// Property: best rank-k truncation error equals the tail singular values
// (Eckart–Young).
func TestEckartYoungQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Random(rng, 5, 6)
		r := SVD(a)
		k := 2
		uk := r.U.FirstColumns(k)
		vk := r.V.FirstColumns(k)
		us := uk.Clone()
		for j := 0; j < k; j++ {
			for i := 0; i < us.Rows; i++ {
				us.Set(i, j, us.At(i, j)*r.Values[j])
			}
		}
		trunc := MulTransB(us, vk)
		var tail float64
		for _, s := range r.Values[k:] {
			tail += s * s
		}
		err := diffNorm(a, trunc)
		return math.Abs(err-math.Sqrt(tail)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(19))}); err != nil {
		t.Error(err)
	}
}
