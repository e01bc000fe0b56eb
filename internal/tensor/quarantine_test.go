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
