package tensor

import (
	"fmt"
	"sort"

	"repro/internal/parallel"
)

// ModePlan is a compiled kernel plan for one mode of a sparse tensor: the
// stored entries laid out in ascending mode-n matricization-column order
// (ties broken by storage order — a stable sort), split into column
// groups. CompileModePlan builds it with an O(nnz log nnz) stable sort.
//
// Plans exist for HOOI's TTM and nothing else. Column groups are
// write-disjoint output cells of X ×ₙ M, so MultiTTMSparseWorkers partitions
// groups among workers instead of scanning every entry; HOOICtx compiles
// the two plans its sweeps reuse and passes them in, every other caller
// passes nil. No Gram compiles one: ModeGramWorkers reads the fibre runs
// the storage already holds.
//
// A plan is a value, not tensor state: nothing caches it on the tensor. A
// caller that writes the tensor's Idx or Vals must compile again: a plan
// describes the entries as they were when it was compiled.
//
// A plan is immutable once built. Rows and Vals are copies in plan order,
// so kernels touch two flat arrays with perfect locality instead of
// strided multi-index decodes; Ents points back into the tensor's storage.
type ModePlan struct {
	// Mode is the mode this plan was compiled for.
	Mode int
	// Ents holds, for each plan position, the storage index of the entry
	// (the stable sort permutation). Kernels use it to recover an entry's
	// full multi-index from the tensor when needed.
	Ents []int
	// Rows holds each entry's mode-n coordinate in plan order.
	Rows []int
	// Vals holds each entry's value in plan order.
	Vals []float64
	// Bounds delimits column groups: positions Bounds[g] up to Bounds[g+1]
	// share one matricization column (equivalently: one configuration of
	// all non-n modes). len(Bounds) == NumGroups()+1.
	Bounds []int
}

// NumGroups returns the number of distinct matricization columns.
func (p *ModePlan) NumGroups() int { return len(p.Bounds) - 1 }

// CompileModePlan builds the sorted triple layout and group bounds of s for
// mode n. The column keys are computed in parallel (disjoint entry ranges);
// the stable sort keeps storage order within a column group, which is what
// preserves the serial floating-point accumulation order of the TTM.
func CompileModePlan(s *Sparse, n, workers int) *ModePlan {
	if n < 0 || n >= s.Order() {
		panic(fmt.Sprintf("tensor: CompileModePlan mode %d out of range for order %d", n, s.Order()))
	}
	nnz := s.NNZ()
	p := &ModePlan{Mode: n}
	if nnz == 0 {
		p.Bounds = []int{0}
		return p
	}
	o := s.Order()
	cols := make([]int, nnz)
	parallel.ForGrain(nnz, workers, parallel.AutoGrain(4*float64(o)), func(lo, hi int) {
		for e := lo; e < hi; e++ {
			cols[e] = s.Shape.MatricizeColumn(n, s.Idx[e*o:(e+1)*o])
		}
	})
	perm := make([]int, nnz)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return cols[perm[a]] < cols[perm[b]] })

	p.Ents = perm
	p.Rows = make([]int, nnz)
	p.Vals = make([]float64, nnz)
	for i, e := range perm {
		p.Rows[i] = s.Idx[e*o+n]
		p.Vals[i] = s.Vals[e]
	}
	bounds := make([]int, 0, 64)
	for start := 0; start < nnz; {
		bounds = append(bounds, start)
		end := start + 1
		for end < nnz && cols[perm[end]] == cols[perm[start]] {
			end++
		}
		start = end
	}
	p.Bounds = append(bounds, nnz)
	return p
}
