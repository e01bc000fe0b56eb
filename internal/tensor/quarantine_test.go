package tensor

import (
	"math"
	"testing"
)

func TestSparseRejectNonFinite(t *testing.T) {
	s := NewSparse(Shape{2, 3})
	s.RejectNonFinite = true
	s.Append([]int{0, 0}, 1.5)
	s.Append([]int{0, 1}, math.NaN())
	s.Append([]int{1, 0}, math.Inf(1))
	s.Append([]int{1, 1}, math.Inf(-1))
	s.Append([]int{1, 2}, -2.5)
	if s.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2 (non-finite values quarantined)", s.NNZ())
	}
	if s.Rejected != 3 {
		t.Fatalf("Rejected = %d, want 3", s.Rejected)
	}
	s.Each(func(idx []int, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite value %v stored at %v", v, idx)
		}
	})
}

func TestSparseAcceptsNonFiniteByDefault(t *testing.T) {
	// The quarantine is opt-in: raw tensors (tests, synthetic data)
	// keep the permissive legacy behaviour.
	s := NewSparse(Shape{2})
	s.Append([]int{0}, math.NaN())
	if s.NNZ() != 1 || s.Rejected != 0 {
		t.Fatalf("default Append altered: NNZ=%d Rejected=%d", s.NNZ(), s.Rejected)
	}
}

func TestSparseCloneCarriesQuarantine(t *testing.T) {
	s := NewSparse(Shape{2})
	s.RejectNonFinite = true
	s.Append([]int{0}, math.NaN())
	c := s.Clone()
	if !c.RejectNonFinite || c.Rejected != 1 {
		t.Fatalf("Clone dropped quarantine state: %+v", c)
	}
	c.Append([]int{1}, math.Inf(1))
	if c.Rejected != 2 || s.Rejected != 1 {
		t.Fatalf("Clone shares accounting: clone=%d orig=%d", c.Rejected, s.Rejected)
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
