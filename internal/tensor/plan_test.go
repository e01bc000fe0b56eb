package tensor

import (
	"math"
	"math/rand"
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

func TestModePlanCachedAndReused(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := randomSparse(rng, Shape{6, 5, 4}, 40)
	p1 := s.PlanMode(1, 1)
	p2 := s.PlanMode(1, 1)
	if p1 != p2 {
		t.Fatal("PlanMode did not return the cached plan on the second call")
	}
	// A different mode builds its own plan without invalidating mode 1's.
	_ = s.PlanMode(0, 1)
	if s.PlanMode(1, 1) != p1 {
		t.Fatal("building another mode's plan invalidated the cached plan")
	}
}

func TestModePlanGroupsAreConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := withDuplicates(rng, randomSparse(rng, Shape{5, 4, 6}, 60), 20)
	o := s.Order()
	for n := 0; n < o; n++ {
		p := s.PlanMode(n, 2)
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

func TestModePlanInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randomSparse(rng, Shape{6, 5, 4}, 50)

	mutations := []struct {
		name string
		do   func(*Sparse)
	}{
		{"Append", func(s *Sparse) { s.Append([]int{0, 0, 0}, 1.5) }},
		{"Dedup", func(s *Sparse) { s.Dedup(SumDuplicates) }},
		{"InvalidatePlans", func(s *Sparse) { s.Vals[0] *= 2; s.InvalidatePlans() }},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			c := s.Clone()
			stale := c.PlanMode(0, 1)
			m.do(c)
			fresh := c.PlanMode(0, 1)
			if fresh == stale {
				t.Fatalf("%s did not invalidate the cached plan", m.name)
			}
			// The fresh plan must produce the same Gram as a never-planned
			// copy of the mutated tensor.
			pristine := c.Clone()
			bitsEqualMat(t, m.name, ModeGramWorkers(c, 0, 1), modeGramWorkersRef(pristine, 0, 1))
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
	// path engages once a plan is cached: each mode is checked plan-less
	// (entry scatter) and then with the plan a Gram step would have left.
	s := withDuplicates(rng, randomSparse(rng, Shape{12, 11, 10, 9}, 6000), 100)
	for n := 0; n < s.Order(); n++ {
		m := mat.Random(rand.New(rand.NewSource(int64(n))), 4, s.Shape[n])
		for _, planned := range []bool{false, true} {
			if planned {
				s.PlanMode(n, 1)
			}
			for _, w := range []int{1, 2, 8} {
				got := TTMSparseWorkers(s, n, m, w)
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

// TestPlanCacheConcurrentKernels drives concurrent kernels over the same
// tensor (as HOSVD's per-mode fan-out does) to exercise the plan cache's
// locking; run under -race this doubles as a data-race proof.
func TestPlanCacheConcurrentKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := randomSparse(rng, Shape{8, 7, 6, 5}, 800)
	want := make([]*mat.Matrix, s.Order())
	for n := range want {
		want[n] = modeGramWorkersRef(s, n, 1)
	}
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for n := 0; n < s.Order(); n++ {
				bitsEqualMat(t, "concurrent ModeGram", ModeGramWorkers(s, n, 2), want[n])
			}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}

func TestPlanlessView(t *testing.T) {
	s := NewSparse(Shape{3, 4})
	s.RejectNonFinite = true
	s.Append([]int{0, 1}, 2.5)
	s.Append([]int{2, 3}, -1.0)
	s.Append([]int{1, 0}, math.NaN()) // quarantined
	s.PlanMode(0, 1)
	if !s.HasPlanMode(0) {
		t.Fatal("source should have a cached plan for mode 0")
	}

	v := s.PlanlessView()
	if v.HasPlanMode(0) {
		t.Error("view must start with an empty plan cache")
	}
	if v.NNZ() != s.NNZ() {
		t.Fatalf("view NNZ = %d, want %d", v.NNZ(), s.NNZ())
	}
	if &v.Idx[0] != &s.Idx[0] || &v.Vals[0] != &s.Vals[0] {
		t.Error("view must alias the source storage, not copy it")
	}
	if !v.RejectNonFinite || v.Rejected != 1 {
		t.Errorf("view quarantine = (%v, %d), want (true, 1)", v.RejectNonFinite, v.Rejected)
	}
	// Plans built on the view stay on the view.
	v.PlanMode(1, 1)
	if s.HasPlanMode(1) {
		t.Error("plan built on the view must not appear on the source")
	}
}
