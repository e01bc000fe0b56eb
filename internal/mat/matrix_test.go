package mat

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestNewZeroInitialised(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 {
		t.Fatalf("dims = %d×%d, want 3×4", m.Rows, m.Cols)
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("Data[%d] = %v, want 0", i, v)
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1, 2) did not panic")
		}
	}()
	New(-1, 2)
}

func TestFromSlice(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	m := FromSlice(2, 3, data)
	if m.At(0, 0) != 1 || m.At(0, 2) != 3 || m.At(1, 0) != 4 || m.At(1, 2) != 6 {
		t.Fatalf("row-major layout broken: %v", m.Data)
	}
	// FromSlice wraps without copying.
	data[0] = 99
	if m.At(0, 0) != 99 {
		t.Fatal("FromSlice copied data; expected aliasing")
	}
}

func TestFromSliceBadLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice(2, 3, []float64{1, 2})
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.Rows != 3 || m.Cols != 2 {
		t.Fatalf("dims = %d×%d, want 3×2", m.Rows, m.Cols)
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %v, want 6", m.At(2, 1))
	}
	empty := FromRows(nil)
	if empty.Rows != 0 || empty.Cols != 0 {
		t.Fatalf("FromRows(nil) = %d×%d, want 0×0", empty.Rows, empty.Cols)
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows did not panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1.0
			}
			if id.At(i, j) != want {
				t.Fatalf("Identity(4)[%d,%d] = %v, want %v", i, j, id.At(i, j), want)
			}
		}
	}
}

func TestSetAtRoundtrip(t *testing.T) {
	m := New(5, 7)
	m.Set(3, 6, 2.5)
	if m.At(3, 6) != 2.5 {
		t.Fatalf("At after Set = %v, want 2.5", m.At(3, 6))
	}
}

func TestRowAliases(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	r := m.Row(1)
	r[0] = 40
	if m.At(1, 0) != 40 {
		t.Fatal("Row should alias storage")
	}
}

func TestSetRow(t *testing.T) {
	m := New(2, 3)
	m.SetRow(1, []float64{7, 8, 9})
	if m.At(1, 0) != 7 || m.At(1, 2) != 9 {
		t.Fatalf("SetRow result %v", m.Row(1))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetRow with wrong length did not panic")
		}
	}()
	m.SetRow(0, []float64{1})
}

func TestCloneIndependent(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone should deep-copy")
	}
}

func TestEqual(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{1, 2.0000001}, {3, 4}})
	if !a.Equal(b, 1e-5) {
		t.Fatal("matrices should be equal within tol")
	}
	if a.Equal(b, 1e-9) {
		t.Fatal("matrices should differ at tight tol")
	}
	c := New(2, 3)
	if a.Equal(c, 1) {
		t.Fatal("shape mismatch must not be equal")
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	small := FromRows([][]float64{{1, 2}})
	if !strings.Contains(small.String(), "1") {
		t.Fatalf("small String() = %q should include entries", small.String())
	}
	large := New(20, 20)
	if strings.Contains(large.String(), "[") {
		t.Fatalf("large String() should elide entries, got %q", large.String())
	}
}

func TestFirstColumns(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	f := m.FirstColumns(2)
	want := FromRows([][]float64{{1, 2}, {4, 5}})
	if !f.Equal(want, 0) {
		t.Fatalf("FirstColumns(2) = %v, want %v", f, want)
	}
	// Requesting more columns than exist zero-pads.
	g := m.FirstColumns(5)
	if g.Cols != 5 {
		t.Fatalf("FirstColumns(5).Cols = %d, want 5", g.Cols)
	}
	if g.At(0, 3) != 0 || g.At(1, 4) != 0 {
		t.Fatal("padding columns must be zero")
	}
	if g.At(0, 2) != 3 {
		t.Fatal("original columns must be preserved")
	}
}

func TestIsSquare(t *testing.T) {
	if !New(3, 3).IsSquare() {
		t.Fatal("3×3 not reported square")
	}
	if New(2, 3).IsSquare() {
		t.Fatal("2×3 reported square")
	}
}

func TestRandomInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := Random(rng, 10, 10)
	for _, v := range m.Data {
		if v < -1 || v >= 1 || math.IsNaN(v) {
			t.Fatalf("Random entry %v out of [-1, 1)", v)
		}
	}
}

func TestRandomOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	q := RandomOrthonormal(rng, 8, 5)
	if !IsOrthonormalCols(q, 1e-10) {
		t.Fatal("RandomOrthonormal columns not orthonormal")
	}
}

func TestRandomSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := RandomSymmetric(rng, 6)
	if !s.Equal(Transpose(s), 0) {
		t.Fatal("RandomSymmetric not symmetric")
	}
}

func TestRandomSPDIsPositiveDefinite(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	s := RandomSPD(rng, 6)
	eig := SymEig(s)
	for _, v := range eig.Values {
		if v <= 0 {
			t.Fatalf("SPD matrix has non-positive eigenvalue %v", v)
		}
	}
}
