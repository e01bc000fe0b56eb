package tensor

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func randomDense(rng *rand.Rand, shape Shape) *Dense {
	d := NewDense(shape)
	for i := range d.Data {
		d.Data[i] = 2*rng.Float64() - 1
	}
	return d
}

func randomSparse(rng *rand.Rand, shape Shape, nnz int) *Sparse {
	// Sample distinct linear indices so the result is duplicate-free.
	total := shape.NumElements()
	if nnz > total {
		nnz = total
	}
	seen := make(map[int]bool, nnz)
	s := NewSparse(shape)
	idx := make([]int, shape.Order())
	for len(seen) < nnz {
		lin := rng.Intn(total)
		if seen[lin] {
			continue
		}
		seen[lin] = true
		shape.MultiIndex(lin, idx)
		s.Append(idx, rng.NormFloat64())
	}
	return s
}

func TestShapeBasics(t *testing.T) {
	s := Shape{3, 4, 5}
	if s.NumElements() != 60 {
		t.Fatalf("NumElements = %d, want 60", s.NumElements())
	}
	if s.Order() != 3 {
		t.Fatalf("Order = %d, want 3", s.Order())
	}
	if !s.Clone().Equal(s) {
		t.Fatal("Clone not equal")
	}
	if s.Equal(Shape{3, 4}) || s.Equal(Shape{3, 4, 6}) {
		t.Fatal("Equal false positive")
	}
	st := s.Strides()
	if st[0] != 20 || st[1] != 5 || st[2] != 1 {
		t.Fatalf("Strides = %v, want [20 5 1]", st)
	}
}

func TestLinearMultiIndexRoundtrip(t *testing.T) {
	s := Shape{2, 3, 4}
	idx := make([]int, 3)
	for lin := 0; lin < s.NumElements(); lin++ {
		s.MultiIndex(lin, idx)
		if got := s.LinearIndex(idx); got != lin {
			t.Fatalf("roundtrip: lin %d -> %v -> %d", lin, idx, got)
		}
	}
}

func TestLinearIndexPanics(t *testing.T) {
	s := Shape{2, 2}
	for _, bad := range [][]int{{2, 0}, {-1, 0}, {0, 0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("LinearIndex(%v) did not panic", bad)
				}
			}()
			s.LinearIndex(bad)
		}()
	}
}

func TestMatricizeColumnConvention(t *testing.T) {
	// Kolda–Bader example-style check: for shape (I1,I2,I3) and mode 0,
	// column = i2 + i3*I2 (little-endian over non-n modes in mode order).
	s := Shape{2, 3, 4}
	if got := s.MatricizeColumn(0, []int{1, 2, 3}); got != 2+3*3 {
		t.Fatalf("MatricizeColumn mode 0 = %d, want 11", got)
	}
	if got := s.MatricizeColumn(1, []int{1, 2, 3}); got != 1+3*2 {
		t.Fatalf("MatricizeColumn mode 1 = %d, want 7", got)
	}
	if got := s.MatricizeCols(1); got != 8 {
		t.Fatalf("MatricizeCols(1) = %d, want 8", got)
	}
}

func TestDenseAtSet(t *testing.T) {
	d := NewDense(Shape{2, 3})
	d.Set(5, 1, 2)
	if d.At(1, 2) != 5 {
		t.Fatalf("At = %v, want 5", d.At(1, 2))
	}
	if d.At(0, 0) != 0 {
		t.Fatal("unset element should be zero")
	}
}

func TestDenseFromSlice(t *testing.T) {
	d := DenseFromSlice(Shape{2, 2}, []float64{1, 2, 3, 4})
	// C order: last mode fastest.
	if d.At(0, 1) != 2 || d.At(1, 0) != 3 {
		t.Fatalf("C-order layout broken: %v", d.Data)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched DenseFromSlice did not panic")
		}
	}()
	DenseFromSlice(Shape{2, 2}, []float64{1})
}

func TestDenseArithmetic(t *testing.T) {
	a := DenseFromSlice(Shape{2, 2}, []float64{1, 2, 3, 4})
	b := DenseFromSlice(Shape{2, 2}, []float64{5, 6, 7, 8})
	if got := a.Add(b); got.Data[3] != 12 {
		t.Fatalf("Add = %v", got.Data)
	}
	if got := b.Sub(a); got.Data[0] != 4 {
		t.Fatalf("Sub = %v", got.Data)
	}
	if n := DenseFromSlice(Shape{2}, []float64{3, 4}).Norm(); math.Abs(n-5) > 1e-14 {
		t.Fatalf("Norm = %v, want 5", n)
	}
	if !a.Equal(a.Clone(), 0) {
		t.Fatal("Equal(self) = false")
	}
	if a.Equal(b, 1) {
		t.Fatal("Equal should fail at tol 1")
	}
}

func TestDenseShapeMismatchPanics(t *testing.T) {
	a, b := NewDense(Shape{2}), NewDense(Shape{3})
	for name, fn := range map[string]func(){
		"Add": func() { a.Add(b) },
		"Sub": func() { a.Sub(b) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s shape mismatch did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSparseAppendEntryEach(t *testing.T) {
	s := NewSparse(Shape{2, 3})
	s.Append([]int{0, 1}, 2.5)
	s.Append([]int{1, 2}, -1)
	if s.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", s.NNZ())
	}
	idx, v := s.Entry(1)
	if idx[0] != 1 || idx[1] != 2 || v != -1 {
		t.Fatalf("Entry(1) = %v, %v", idx, v)
	}
	count := 0
	s.Each(func(idx []int, v float64) { count++ })
	if count != 2 {
		t.Fatalf("Each visited %d entries, want 2", count)
	}
}

func TestSparseAppendPanics(t *testing.T) {
	s := NewSparse(Shape{2, 2})
	for _, bad := range [][]int{{2, 0}, {0, -1}, {0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Append(%v) did not panic", bad)
				}
			}()
			s.Append(bad, 1)
		}()
	}
}

// TestSparseAppendBlockMatchesAppend pins AppendBlock to Append's contract
// cell by cell: the same stored layout as a per-cell loop, non-finite
// values stored as they come.
func TestSparseAppendBlockMatchesAppend(t *testing.T) {
	shape := Shape{3, 4, 2}
	idx := []int{0, 1, 0, 2, 3, 1, 1, 0, 1, 2, 2, 0, 0, 3, 1}
	vals := []float64{1.5, math.NaN(), -2, math.Inf(-1), 4}
	block, cells := NewSparse(shape), NewSparse(shape)
	for _, s := range []*Sparse{block, cells} {
		s.Append([]int{2, 2, 1}, 7)
	}
	block.AppendBlock(idx, vals)
	for c, v := range vals {
		cells.Append(idx[c*3:(c+1)*3], v)
	}
	if !reflect.DeepEqual(block.Idx, cells.Idx) {
		t.Fatalf("Idx %v, per-cell %v", block.Idx, cells.Idx)
	}
	if len(block.Vals) != 1+len(vals) || len(cells.Vals) != len(block.Vals) {
		t.Fatalf("%d values, per-cell %d, want %d", len(block.Vals), len(cells.Vals), 1+len(vals))
	}
	for i, v := range block.Vals {
		if math.Float64bits(v) != math.Float64bits(cells.Vals[i]) {
			t.Fatalf("Vals[%d] = %v, per-cell %v", i, v, cells.Vals[i])
		}
	}
}

// TestPlanlessView: the view is a shallow copy — the same entries,
// aliased, not copied.
func TestPlanlessView(t *testing.T) {
	s := NewSparse(Shape{3, 4})
	s.Append([]int{0, 1}, 2.5)
	s.Append([]int{2, 3}, -1.0)

	v := s.PlanlessView()
	if v.NNZ() != s.NNZ() {
		t.Fatalf("view NNZ = %d, want %d", v.NNZ(), s.NNZ())
	}
	if &v.Idx[0] != &s.Idx[0] || &v.Vals[0] != &s.Vals[0] {
		t.Error("view must alias the source storage, not copy it")
	}
}

func TestSparseAppendBlockPanics(t *testing.T) {
	// Index past the mode size, negative index, ragged block.
	for _, bad := range [][]int{{0, 0, 0, 2}, {0, 0, -1, 0}, {0, 0, 1}} {
		s := NewSparse(Shape{2, 2})
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AppendBlock(%v) did not panic", bad)
				}
			}()
			s.AppendBlock(bad, []float64{1, 2})
		}()
	}
}

func TestSparseReserve(t *testing.T) {
	s := NewSparse(Shape{2, 3})
	s.Append([]int{1, 2}, 7)
	s.Reserve(4)
	if cap(s.Vals) != 5 || cap(s.Idx) != 10 {
		t.Fatalf("Reserve(4) on 1 cell: caps %d/%d, want 5/10", cap(s.Vals), cap(s.Idx))
	}
	vals, idx := &s.Vals[0], &s.Idx[0]
	for i := 0; i < 4; i++ {
		s.Append([]int{0, i % 3}, float64(i))
	}
	if &s.Vals[0] != vals || &s.Idx[0] != idx {
		t.Fatal("appending the reserved cells reallocated")
	}
	if i, v := s.Entry(0); i[0] != 1 || i[1] != 2 || v != 7 || s.NNZ() != 5 {
		t.Fatalf("Reserve lost the stored entry: %v %v, nnz %d", i, v, s.NNZ())
	}
	s.Reserve(0) // already roomy: a no-op
	if &s.Vals[0] != vals {
		t.Fatal("Reserve(0) reallocated")
	}
}

func TestSparseDenseRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	d := randomDense(rng, Shape{3, 4, 2})
	s := d.ToSparse(0)
	if !s.ToDense().Equal(d, 0) {
		t.Fatal("ToSparse/ToDense roundtrip broken")
	}
	if math.Abs(s.Norm()-d.Norm()) > 1e-12 {
		t.Fatal("sparse norm != dense norm")
	}
}

func TestToSparseThreshold(t *testing.T) {
	d := DenseFromSlice(Shape{3}, []float64{0.5, 1e-12, -2})
	s := d.ToSparse(1e-9)
	if s.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2 after thresholding", s.NNZ())
	}
}

func TestSparseDensity(t *testing.T) {
	s := NewSparse(Shape{2, 5})
	s.Append([]int{0, 0}, 1)
	if got := s.Density(); math.Abs(got-0.1) > 1e-15 {
		t.Fatalf("Density = %v, want 0.1", got)
	}
}

func TestSparseDedupSum(t *testing.T) {
	s := NewSparse(Shape{2, 2})
	s.Append([]int{0, 1}, 1)
	s.Append([]int{0, 1}, 2)
	s.Append([]int{1, 0}, 5)
	s.Dedup(SumDuplicates)
	if s.NNZ() != 2 {
		t.Fatalf("NNZ after Dedup = %d, want 2", s.NNZ())
	}
	d := s.ToDense()
	if d.At(0, 1) != 3 || d.At(1, 0) != 5 {
		t.Fatalf("Dedup sums wrong: %v", d.Data)
	}
}

func TestSparseDedupMean(t *testing.T) {
	s := NewSparse(Shape{2})
	s.Append([]int{0}, 1)
	s.Append([]int{0}, 3)
	s.Dedup(MeanDuplicates)
	if s.NNZ() != 1 || s.Vals[0] != 2 {
		t.Fatalf("mean Dedup = %v", s.Vals)
	}
}

func TestSparseClone(t *testing.T) {
	s := NewSparse(Shape{2})
	s.Append([]int{1}, 7)
	c := s.Clone()
	c.Vals[0] = 9
	if s.Vals[0] != 7 {
		t.Fatal("Clone aliases values")
	}
}

func TestDenseSliceMode(t *testing.T) {
	d := DenseFromSlice(Shape{2, 3}, []float64{1, 2, 3, 4, 5, 6})
	row := d.SliceMode(0, 1)
	if !row.Shape.Equal(Shape{3}) || row.Data[0] != 4 || row.Data[2] != 6 {
		t.Fatalf("SliceMode(0,1) = %v", row.Data)
	}
	col := d.SliceMode(1, 2)
	if !col.Shape.Equal(Shape{2}) || col.Data[0] != 3 || col.Data[1] != 6 {
		t.Fatalf("SliceMode(1,2) = %v", col.Data)
	}
}

func TestSliceModePanics(t *testing.T) {
	d := NewDense(Shape{2, 2})
	for _, bad := range [][2]int{{2, 0}, {0, 2}, {-1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SliceMode(%v) did not panic", bad)
				}
			}()
			d.SliceMode(bad[0], bad[1])
		}()
	}
	one := NewDense(Shape{3})
	defer func() {
		if recover() == nil {
			t.Error("slicing order-1 tensor did not panic")
		}
	}()
	one.SliceMode(0, 0)
}
