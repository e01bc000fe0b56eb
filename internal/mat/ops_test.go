package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddAverage(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	if got, want := Add(a, b), FromRows([][]float64{{6, 8}, {10, 12}}); !got.Equal(want, 0) {
		t.Fatalf("Add = %v", got)
	}
	if got, want := Average(a, b), FromRows([][]float64{{3, 4}, {5, 6}}); !got.Equal(want, 0) {
		t.Fatalf("Average = %v", got)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a, b := New(2, 2), New(2, 3)
	for name, fn := range map[string]func(){
		"Add":       func() { Add(a, b) },
		"Average":   func() { Average(a, b) },
		"Mul":       func() { Mul(b, b) },
		"MulTransA": func() { MulTransA(a, New(3, 2)) },
		"MulTransB": func() { MulTransB(a, b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mismatched shapes did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestMulKnown(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := FromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	got := Mul(a, b)
	want := FromRows([][]float64{{58, 64}, {139, 154}})
	if !got.Equal(want, 1e-12) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := Random(rng, 4, 6)
	if !Mul(Identity(4), a).Equal(a, 1e-14) {
		t.Fatal("I·a != a")
	}
	if !Mul(a, Identity(6)).Equal(a, 1e-14) {
		t.Fatal("a·I != a")
	}
}

func TestMulTransVariantsAgreeWithExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := Random(rng, 5, 3)
	b := Random(rng, 5, 4)
	if !MulTransA(a, b).Equal(Mul(Transpose(a), b), 1e-12) {
		t.Fatal("MulTransA disagrees with explicit transpose product")
	}
	c := Random(rng, 6, 3)
	if !MulTransB(a, c).Equal(Mul(a, Transpose(c)), 1e-12) {
		t.Fatal("MulTransB disagrees with explicit transpose product")
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := Random(rng, 4, 7)
	if !Transpose(Transpose(a)).Equal(a, 0) {
		t.Fatal("transpose is not an involution")
	}
	if Transpose(a).Rows != 7 || Transpose(a).Cols != 4 {
		t.Fatal("transpose dims wrong")
	}
}

func TestGram(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := Random(rng, 4, 9)
	g := Gram(a)
	if !g.Equal(Mul(a, Transpose(a)), 1e-12) {
		t.Fatal("Gram != a·aᵀ")
	}
	if !g.Equal(Transpose(g), 1e-12) {
		t.Fatal("Gram not symmetric")
	}
}

func TestNorms(t *testing.T) {
	a := FromRows([][]float64{{3, 4}, {0, 0}})
	if got := RowNorm(a, 0); math.Abs(got-5) > 1e-14 {
		t.Fatalf("RowNorm(0) = %v, want 5", got)
	}
	if got := RowNorm(a, 1); got != 0 {
		t.Fatalf("RowNorm(1) = %v, want 0", got)
	}
	if got := ColNorm(a, 0); math.Abs(got-3) > 1e-14 {
		t.Fatalf("ColNorm(0) = %v, want 3", got)
	}
}

func TestIsOrthonormalCols(t *testing.T) {
	if !IsOrthonormalCols(Identity(3), 1e-14) {
		t.Fatal("identity should be orthonormal")
	}
	bad := FromRows([][]float64{{1, 1}, {0, 1}})
	if IsOrthonormalCols(bad, 1e-10) {
		t.Fatal("non-orthogonal matrix passed the check")
	}
}

// Property: matrix multiplication is associative and distributes over
// addition, for random small matrices.
func TestMulPropertiesQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(9))}
	assoc := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Random(rng, 3, 4)
		b := Random(rng, 4, 5)
		c := Random(rng, 5, 2)
		return Mul(Mul(a, b), c).Equal(Mul(a, Mul(b, c)), 1e-10)
	}
	if err := quick.Check(assoc, cfg); err != nil {
		t.Errorf("associativity: %v", err)
	}
	distrib := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Random(rng, 3, 4)
		b := Random(rng, 4, 2)
		c := Random(rng, 4, 2)
		return Mul(a, Add(b, c)).Equal(Add(Mul(a, b), Mul(a, c)), 1e-10)
	}
	if err := quick.Check(distrib, cfg); err != nil {
		t.Errorf("distributivity: %v", err)
	}
}

func TestRandomOrthonormalPanicsWideInput(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	defer func() {
		if recover() == nil {
			t.Fatal("RandomOrthonormal(c>r) did not panic")
		}
	}()
	RandomOrthonormal(rng, 2, 3)
}
