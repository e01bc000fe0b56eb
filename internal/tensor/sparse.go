package tensor

import (
	"fmt"
	"math"
	"sort"
)

// Sparse is an N-mode tensor in coordinate (COO) format. Indices are stored
// flattened: entry e occupies Idx[e*order : (e+1)*order]. Duplicate
// coordinates are permitted until Dedup is called; most builders in this
// module produce duplicate-free tensors directly.
//
// A Sparse holds no derived state, and no kernel compiles any: every
// kernel reads Idx and Vals as they are stored when it is called, so code
// may write them directly between kernel calls.
type Sparse struct {
	Shape Shape
	Idx   []int
	Vals  []float64
}

// NewSparse returns an empty sparse tensor with the given shape.
func NewSparse(shape Shape) *Sparse {
	return &Sparse{Shape: shape.Clone()}
}

// PlanlessView returns a shallow copy of s: the same shape and entry
// storage (aliased, not copied). A tensor caches no kernel plans, so
// there is nothing for the view to leave behind; it is kept only because
// cmd/m2tdperf still calls it.
func (s *Sparse) PlanlessView() *Sparse {
	v := *s
	return &v
}

// NNZ returns the number of stored entries.
func (s *Sparse) NNZ() int { return len(s.Vals) }

// Order returns the number of modes.
func (s *Sparse) Order() int { return s.Shape.Order() }

// Append adds an entry at the multi-index (copied). Bounds are checked.
func (s *Sparse) Append(idx []int, v float64) {
	if len(idx) != s.Order() {
		panic(fmt.Sprintf("tensor: Append index order %d != %d", len(idx), s.Order()))
	}
	for k, i := range idx {
		if i < 0 || i >= s.Shape[k] {
			panic(fmt.Sprintf("tensor: Append index %v out of range for shape %v", idx, s.Shape))
		}
	}
	s.Idx = append(s.Idx, idx...)
	s.Vals = append(s.Vals, v)
}

// AppendBlock adds len(vals) entries at once: cell c sits at the
// multi-index idx[c*order : (c+1)*order] (copied) with value vals[c]. It
// stores exactly what Append applied cell by cell would, every index
// range-checked, but bulk builders (the sub-ensemble and stitch emission)
// pay two slice appends per block instead of per cell.
func (s *Sparse) AppendBlock(idx []int, vals []float64) {
	o := s.Order()
	if len(idx) != len(vals)*o {
		panic(fmt.Sprintf("tensor: AppendBlock got %d indices for %d order-%d cells", len(idx), len(vals), o))
	}
	// Range-check column by column: one mode size per pass, and a negative
	// index fails the unsigned compare too.
	for k, d := range s.Shape {
		for at := k; at < len(idx); at += o {
			if uint(idx[at]) >= uint(d) {
				c := at / o
				panic(fmt.Sprintf("tensor: AppendBlock index %v out of range for shape %v", idx[c*o:(c+1)*o], s.Shape))
			}
		}
	}
	s.Idx = append(s.Idx, idx...)
	s.Vals = append(s.Vals, vals...)
}

// Reserve grows the entry storage so that n more cells can be appended
// without reallocating. Builders that know their size up front (the
// sub-ensemble assembly, the stitch emission) call it once before the
// first Append instead of paying append's doubling copies.
func (s *Sparse) Reserve(n int) {
	if need := len(s.Vals) + n; need > cap(s.Vals) {
		s.Vals = append(make([]float64, 0, need), s.Vals...)
	}
	if need := len(s.Idx) + n*s.Order(); need > cap(s.Idx) {
		s.Idx = append(make([]int, 0, need), s.Idx...)
	}
}

// Entry returns the multi-index slice (aliasing internal storage; do not
// mutate) and value of the e-th stored entry.
func (s *Sparse) Entry(e int) ([]int, float64) {
	o := s.Order()
	return s.Idx[e*o : (e+1)*o], s.Vals[e]
}

// Each invokes fn for every stored entry. The index slice aliases internal
// storage and must not be retained or mutated.
func (s *Sparse) Each(fn func(idx []int, v float64)) {
	o := s.Order()
	for e := 0; e < len(s.Vals); e++ {
		fn(s.Idx[e*o:(e+1)*o], s.Vals[e])
	}
}

// Norm returns the Frobenius norm over stored entries. The tensor must be
// duplicate-free for this to equal the mathematical norm.
func (s *Sparse) Norm() float64 {
	var sum float64
	for _, v := range s.Vals {
		sum += v * v
	}
	return math.Sqrt(sum)
}

// Density returns NNZ divided by the total number of cells.
func (s *Sparse) Density() float64 {
	total := s.Shape.NumElements()
	if total == 0 {
		return 0
	}
	return float64(s.NNZ()) / float64(total)
}

// Clone returns a deep copy.
func (s *Sparse) Clone() *Sparse {
	out := NewSparse(s.Shape)
	out.Idx = append([]int(nil), s.Idx...)
	out.Vals = append([]float64(nil), s.Vals...)
	return out
}

// ToDense materialises the tensor densely, summing duplicates.
func (s *Sparse) ToDense() *Dense {
	d := NewDense(s.Shape)
	s.Each(func(idx []int, v float64) {
		d.Data[s.Shape.LinearIndex(idx)] += v
	})
	return d
}

// Dedup merges duplicate coordinates using the combiner (e.g. sum or mean
// of the duplicates) and sorts entries by linear index. The combiner
// receives all values recorded for one coordinate.
func (s *Sparse) Dedup(combine func(vals []float64) float64) {
	if s.NNZ() == 0 {
		return
	}
	o := s.Order()
	lin := make([]int, s.NNZ())
	for e := 0; e < s.NNZ(); e++ {
		lin[e] = s.Shape.LinearIndex(s.Idx[e*o : (e+1)*o])
	}
	perm := make([]int, s.NNZ())
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return lin[perm[a]] < lin[perm[b]] })

	newIdx := make([]int, 0, len(s.Idx))
	newVals := make([]float64, 0, len(s.Vals))
	group := make([]float64, 0, 4)
	flush := func(e int) {
		newIdx = append(newIdx, s.Idx[e*o:(e+1)*o]...)
		newVals = append(newVals, combine(group))
		group = group[:0]
	}
	for i := 0; i < len(perm); i++ {
		group = append(group, s.Vals[perm[i]])
		if i+1 == len(perm) || lin[perm[i+1]] != lin[perm[i]] {
			flush(perm[i])
		}
	}
	s.Idx, s.Vals = newIdx, newVals
}

// SumDuplicates is a Dedup combiner that sums duplicate values.
func SumDuplicates(vals []float64) float64 {
	var t float64
	for _, v := range vals {
		t += v
	}
	return t
}

// MeanDuplicates is a Dedup combiner that averages duplicate values.
func MeanDuplicates(vals []float64) float64 {
	return SumDuplicates(vals) / float64(len(vals))
}
