package tensor

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/parallel"
)

// selectFixture builds a multi-strip sparse tensor plus a pseudo-random
// keep/scale pair (seeded — the mask itself must be identical across the
// worker sweeps).
func selectFixture(t *testing.T) (*Sparse, []bool, []float64) {
	t.Helper()
	s := seededSparse(Shape{14, 12, 10, 8}, 9000, 31)
	rng := rand.New(rand.NewSource(32))
	keep := make([]bool, s.NNZ())
	scaled := make([]float64, s.NNZ())
	for e := range keep {
		keep[e] = rng.Float64() < 0.4
		scaled[e] = s.Vals[e] * (1 + rng.Float64())
	}
	return s, keep, scaled
}

// serialSelect is the one-line specification SelectScaled must match.
func serialSelect(s *Sparse, keep []bool, scaled []float64) *Sparse {
	out := NewSparse(s.Shape)
	o := s.Order()
	for e := 0; e < s.NNZ(); e++ {
		if keep[e] {
			out.Idx = append(out.Idx, s.Idx[e*o:(e+1)*o]...)
			out.Vals = append(out.Vals, scaled[e])
		}
	}
	return out
}

func sparseEqualBits(a, b *Sparse) bool {
	if len(a.Idx) != len(b.Idx) || len(a.Vals) != len(b.Vals) {
		return false
	}
	for i := range a.Idx {
		if a.Idx[i] != b.Idx[i] {
			return false
		}
	}
	for i := range a.Vals {
		if math.Float64bits(a.Vals[i]) != math.Float64bits(b.Vals[i]) {
			return false
		}
	}
	return true
}

func TestSelectScaledMatchesSerialFilterAcrossWorkers(t *testing.T) {
	s, keep, scaled := selectFixture(t)
	want := serialSelect(s, keep, scaled)
	for _, w := range stripTestWorkers {
		got := s.SelectScaled(keep, scaled, w)
		if !sparseEqualBits(want, got) {
			t.Fatalf("workers=%d SelectScaled differs from the serial filter", w)
		}
	}
}

func TestSelectScaledBitStableUnderHighFanoutWorkers(t *testing.T) {
	// Raise the fan-out cap above GOMAXPROCS so real goroutines interleave
	// even on small CI machines (the faults job runs this under -race).
	prev := parallel.SetFanoutCap(8)
	defer parallel.SetFanoutCap(prev)
	s, keep, scaled := selectFixture(t)
	want := s.SelectScaled(keep, scaled, 1)
	for _, w := range stripTestWorkers[1:] {
		t.Run("w="+strconv.Itoa(w), func(t *testing.T) {
			got := s.SelectScaled(keep, scaled, w)
			if !sparseEqualBits(want, got) {
				t.Fatalf("SelectScaled workers=%d differs under fanout cap 8", w)
			}
		})
	}
}

func TestAbsSumStripStableAcrossWorkers(t *testing.T) {
	prev := parallel.SetFanoutCap(8)
	defer parallel.SetFanoutCap(prev)
	s := seededSparse(Shape{24, 24, 24}, 13000, 33) // 3 strips at grain 4096
	want := s.AbsSum(1)
	for _, w := range stripTestWorkers[1:] {
		if got := s.AbsSum(w); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("AbsSum workers=%d = %v differs from workers=1 = %v", w, got, want)
		}
	}
	// Small inputs stay single-strip: exactly the undivided serial sum.
	small := seededSparse(Shape{6, 6, 6}, 100, 34)
	var serial float64
	for _, v := range small.Vals {
		serial += math.Abs(v)
	}
	if math.Float64bits(small.AbsSum(4)) != math.Float64bits(serial) {
		t.Fatalf("single-strip AbsSum differs from the serial loop")
	}
}
