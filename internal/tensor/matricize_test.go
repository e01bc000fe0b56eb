package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
)

func TestMatricizeKolda(t *testing.T) {
	// 2×2×2 tensor with elements 0..7 in C order. Check a handful of
	// matricization cells against the column convention.
	d := DenseFromSlice(Shape{2, 2, 2}, []float64{0, 1, 2, 3, 4, 5, 6, 7})
	m0 := Matricize(d, 0)
	if m0.Rows != 2 || m0.Cols != 4 {
		t.Fatalf("mode-0 dims = %d×%d, want 2×4", m0.Rows, m0.Cols)
	}
	// Element (1, 0, 1) = 5; column for mode 0 = i2 + i3*I2... here modes
	// are (0,1,2): col = i1 + i2*I1 = 0 + 1*2 = 2.
	if m0.At(1, 2) != 5 {
		t.Fatalf("X(0)[1,2] = %v, want 5", m0.At(1, 2))
	}
	// Element (0, 1, 1) = 3; mode-1 col = i0 + i2*I0 = 0 + 1*2 = 2.
	m1 := Matricize(d, 1)
	if m1.At(1, 2) != 3 {
		t.Fatalf("X(1)[1,2] = %v, want 3", m1.At(1, 2))
	}
}

func TestMatricizeFoldRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	shapes := []Shape{{3}, {2, 5}, {3, 4, 2}, {2, 3, 2, 4}, {2, 2, 2, 2, 3}}
	for _, shape := range shapes {
		d := randomDense(rng, shape)
		for n := 0; n < shape.Order(); n++ {
			m := Matricize(d, n)
			back := foldRef(m, n, shape)
			if !back.Equal(d, 0) {
				t.Errorf("shape %v mode %d: foldRef(Matricize) != original", shape, n)
			}
		}
	}
}

func frobeniusNorm(m *mat.Matrix) float64 {
	return DenseFromSlice(Shape{m.Rows, m.Cols}, m.Data).Norm()
}

func TestMatricizeNormPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	d := randomDense(rng, Shape{3, 4, 5})
	for n := 0; n < 3; n++ {
		if got, want := frobeniusNorm(Matricize(d, n)), d.Norm(); got < want-1e-12 || got > want+1e-12 {
			t.Errorf("mode %d: matricization norm %v != tensor norm %v", n, got, want)
		}
	}
}

func TestModeGramMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	shape := Shape{4, 3, 5}
	s := randomSparse(rng, shape, 20)
	d := s.ToDense()
	for n := 0; n < shape.Order(); n++ {
		gSparse := ModeGramWorkers(s, n, 0)
		gDense := mat.Gram(Matricize(d, n))
		if !gSparse.Equal(gDense, 1e-10) {
			t.Errorf("mode %d: sparse ModeGram disagrees with dense Gram", n)
		}
		gFiber := ModeGramDenseWorkers(d, n, 0)
		if !gFiber.Equal(gDense, 1e-10) {
			t.Errorf("mode %d: ModeGramDense disagrees with dense Gram", n)
		}
	}
}

func TestModeGramEmpty(t *testing.T) {
	s := NewSparse(Shape{3, 3})
	g := ModeGramWorkers(s, 0, 0)
	if frobeniusNorm(g) != 0 {
		t.Fatal("empty tensor Gram should be zero")
	}
}

func TestLeadingModeVectorsOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	s := randomSparse(rng, Shape{5, 4, 3}, 30)
	u := LeadingModeVectorsWorkers(s, 0, 3, 0)
	if u.Rows != 5 || u.Cols != 3 {
		t.Fatalf("dims = %d×%d, want 5×3", u.Rows, u.Cols)
	}
	if !mat.IsOrthonormalCols(u, 1e-9) {
		t.Fatal("leading mode vectors not orthonormal")
	}
}

// Property: ModeGram is symmetric positive semi-definite for random sparse
// tensors.
func TestModeGramPSDQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := randomSparse(rng, Shape{4, 3, 3}, 12)
		g := ModeGramWorkers(s, rng.Intn(3), 0)
		if !g.Equal(mat.Transpose(g), 1e-10) {
			return false
		}
		eig := mat.SymEig(g)
		for _, v := range eig.Values {
			if v < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(35))}); err != nil {
		t.Error(err)
	}
}
