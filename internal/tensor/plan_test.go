package tensor

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mat"
)

// bitsEqualMat fails the test unless a and b agree exactly (bit-for-bit).
func bitsEqualMat(t *testing.T, name string, a, b *mat.Matrix) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", name, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i, v := range a.Data {
		if v != b.Data[i] {
			t.Fatalf("%s: element %d = %v vs %v (not bit-identical)", name, i, v, b.Data[i])
		}
	}
}

// ttmSparsePlanned is the one sparse product X ×ₙ M with the caller's plan
// p (nil: the entry scatter) handed to the kernel.
func ttmSparsePlanned(x *Sparse, p *ModePlan, n int, m *mat.Matrix, workers int) *Dense {
	shape := x.Shape.Clone()
	shape[n] = m.Rows
	out := NewDense(shape)
	ttmSparseKernel(x, p, n, m, out, shape.Strides(), workers)
	return out
}

// bitsEqualDense fails the test unless a and b agree exactly.
func bitsEqualDense(t *testing.T, name string, a, b *Dense) {
	t.Helper()
	if !a.Shape.Equal(b.Shape) {
		t.Fatalf("%s: shape %v vs %v", name, a.Shape, b.Shape)
	}
	for i, v := range a.Data {
		if v != b.Data[i] {
			t.Fatalf("%s: element %d = %v vs %v (not bit-identical)", name, i, v, b.Data[i])
		}
	}
}

// withDuplicates appends a duplicated slice of entries so plans must cope
// with pre-Dedup tensors.
func withDuplicates(rng *rand.Rand, s *Sparse, n int) *Sparse {
	o := s.Order()
	for i := 0; i < n; i++ {
		e := rng.Intn(s.NNZ())
		s.Append(s.Idx[e*o:(e+1)*o], rng.NormFloat64())
	}
	return s
}

func TestModePlanGroupsAreConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := withDuplicates(rng, randomSparse(rng, Shape{5, 4, 6}, 60), 20)
	o := s.Order()
	for n := 0; n < o; n++ {
		p := CompileModePlan(s, n, 2)
		if len(p.Ents) != s.NNZ() || len(p.Rows) != s.NNZ() || len(p.Vals) != s.NNZ() {
			t.Fatalf("mode %d plan length mismatch", n)
		}
		if p.Bounds[0] != 0 || p.Bounds[len(p.Bounds)-1] != s.NNZ() {
			t.Fatalf("mode %d plan bounds do not cover all entries: %v", n, p.Bounds)
		}
		prevCol := -1
		for g := 0; g < p.NumGroups(); g++ {
			start, end := p.Bounds[g], p.Bounds[g+1]
			idx0 := s.Idx[p.Ents[start]*o : (p.Ents[start]+1)*o]
			col := s.Shape.MatricizeColumn(n, idx0)
			if col <= prevCol {
				t.Fatalf("mode %d group %d column %d not ascending after %d", n, g, col, prevCol)
			}
			prevCol = col
			prevEnt := -1
			for q := start; q < end; q++ {
				e := p.Ents[q]
				idx := s.Idx[e*o : (e+1)*o]
				if got := s.Shape.MatricizeColumn(n, idx); got != col {
					t.Fatalf("mode %d group %d mixes columns %d and %d", n, g, col, got)
				}
				if idx[n] != p.Rows[q] || s.Vals[e] != p.Vals[q] {
					t.Fatalf("mode %d plan position %d does not mirror entry %d", n, q, e)
				}
				if e <= prevEnt {
					t.Fatalf("mode %d group %d not in storage order (stable-sort violated)", n, g)
				}
				prevEnt = e
			}
		}
	}
}

// TestModePlanInvalidation — the name is older than the removal of
// per-tensor plan caches; a tensor holds no plan to invalidate. A Gram
// taken after a mutation — Append, Dedup, or a direct write to Vals with
// no call in between — is the Gram of the mutated entries. Append and
// DirectWrite leave the storage in random order, with no run mode, so
// their Gram keeps the reference's bits. Dedup sorts the storage, which
// lays it out in runs; the run Gram equals the reference to rounding only.
func TestModePlanInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randomSparse(rng, Shape{6, 5, 4}, 50)

	mutations := []struct {
		name string
		do   func(*Sparse)
		runs bool // the mutated storage has a run mode
	}{
		{"Append", func(s *Sparse) { s.Append([]int{0, 0, 0}, 1.5) }, false},
		{"Dedup", func(s *Sparse) { s.Dedup(SumDuplicates) }, true},
		{"DirectWrite", func(s *Sparse) { s.Vals[0] *= 2 }, false},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			c := s.Clone()
			before := ModeGramWorkers(c, 0, 1)
			m.do(c)
			after := ModeGramWorkers(c, 0, 1)
			ref := modeGramWorkersRef(c.Clone(), 0, 1)
			if tau := findRuns(c, &gramScratch{}).tau; (tau >= 0) != m.runs {
				t.Fatalf("%s: run mode %d, want runs %v", m.name, tau, m.runs)
			}
			if m.runs {
				if !after.Equal(ref, 1e-12) {
					t.Fatalf("%s: Gram differs from the reference's", m.name)
				}
			} else {
				bitsEqualMat(t, m.name, after, ref)
			}
			if m.name == "DirectWrite" && reflect.DeepEqual(before.Data, after.Data) {
				t.Fatal("the write did not move the Gram; the case proves nothing")
			}
		})
	}
}

func TestModeGramMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	shapes := []Shape{{7, 5, 4}, {4, 6, 3, 5}, {3, 3, 3, 3, 3}}
	for _, shape := range shapes {
		s := withDuplicates(rng, randomSparse(rng, shape, shape.NumElements()/3), 15)
		for n := 0; n < shape.Order(); n++ {
			for _, w := range []int{1, 8} {
				got := ModeGramWorkers(s, n, w)
				want := modeGramWorkersRef(s, n, w)
				bitsEqualMat(t, "ModeGram", got, want)
			}
		}
	}
}

func TestTTMSparseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Large enough to cross ttmSparseMinNNZ so the plan-grouped parallel
	// path engages when a plan is passed: each mode is checked without one
	// (entry scatter) and then with its compiled plan.
	s := withDuplicates(rng, randomSparse(rng, Shape{12, 11, 10, 9}, 6000), 100)
	for n := 0; n < s.Order(); n++ {
		m := mat.Random(rand.New(rand.NewSource(int64(n))), 4, s.Shape[n])
		for _, p := range []*ModePlan{nil, CompileModePlan(s, n, 1)} {
			for _, w := range []int{1, 2, 8} {
				got := ttmSparsePlanned(s, p, n, m, w)
				want := ttmSparseWorkersRef(s, n, m, w)
				bitsEqualDense(t, "TTMSparse", got, want)
			}
		}
	}
}

func TestTTMDenseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, shape := range []Shape{{9, 8, 7}, {6, 5, 4, 7}, {3, 4, 2, 3, 2}} {
		d := randomDense(rng, shape)
		for n := 0; n < shape.Order(); n++ {
			m := mat.Random(rand.New(rand.NewSource(int64(n))), 3, shape[n])
			for _, w := range []int{1, 8} {
				got := TTMWorkers(d, n, m, w)
				want := ttmWorkersRef(d, n, m, w)
				bitsEqualDense(t, "TTMDense", got, want)
			}
		}
	}
}

func TestModeGramDenseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shape := range []Shape{{8, 7, 6}, {5, 6, 4, 5}} {
		d := randomDense(rng, shape)
		// Zero out some fibers so the nonzero-fiber hoisting is exercised.
		for i := 0; i < len(d.Data); i += 7 {
			d.Data[i] = 0
		}
		for i := 0; i < len(d.Data)/4; i++ {
			d.Data[rng.Intn(len(d.Data))] = 0
		}
		for n := 0; n < shape.Order(); n++ {
			for _, w := range []int{1, 8} {
				got := ModeGramDenseWorkers(d, n, w)
				want := modeGramDenseWorkersRef(d, n, w)
				bitsEqualMat(t, "ModeGramDense", got, want)
			}
		}
	}
}

// TestPlanlessView: the view is a shallow copy — the same entries
// (aliased, not copied) and the same quarantine accounting.
func TestPlanlessView(t *testing.T) {
	s := NewSparse(Shape{3, 4})
	s.RejectNonFinite = true
	s.Append([]int{0, 1}, 2.5)
	s.Append([]int{2, 3}, -1.0)
	s.Append([]int{1, 0}, math.NaN()) // quarantined

	v := s.PlanlessView()
	if v.NNZ() != s.NNZ() {
		t.Fatalf("view NNZ = %d, want %d", v.NNZ(), s.NNZ())
	}
	if &v.Idx[0] != &s.Idx[0] || &v.Vals[0] != &s.Vals[0] {
		t.Error("view must alias the source storage, not copy it")
	}
	if !v.RejectNonFinite || v.Rejected != 1 {
		t.Errorf("view quarantine = (%v, %d), want (true, 1)", v.RejectNonFinite, v.Rejected)
	}
}
