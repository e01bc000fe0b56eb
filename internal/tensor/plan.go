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
// A plan is a value, not tensor state: nothing caches it on the tensor.
// ModeGramWorkers compiles one per call (column groups are the outer
// products of the Gram accumulation). MultiTTMSparseWorkers takes plans
// from its caller (column groups are write-disjoint output cells, so
// workers partition groups instead of scanning every entry); HOOI is the
// one caller that passes any, the plans its sweeps reuse. A caller that
// writes the tensor's Idx or Vals must compile again: a plan describes the
// entries as they were when it was compiled.
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
	// Strips is the Gram reduction grid over GROUP index space: strip s
	// covers groups [Strips[s], Strips[s+1]), cut so strips carry
	// near-equal entry counts while staying contiguous in the plan's
	// sorted storage (cache-aware). The grid is a pure function of the
	// plan contents and package constants — never of the worker count —
	// which is what lets ModeGramWorkers give each strip a private
	// accumulator and still produce bit-identical results for any worker
	// count (see parallel.ReduceStrips). A single strip means consumers
	// take their undivided serial path.
	Strips []int
}

// NumGroups returns the number of distinct matricization columns.
func (p *ModePlan) NumGroups() int { return len(p.Bounds) - 1 }

// NumStrips returns the number of Gram reduction strips.
func (p *ModePlan) NumStrips() int { return len(p.Strips) - 1 }

// gramStripGrain is the minimum plan entries per Gram reduction strip:
// below it the per-strip partial-matrix zero/merge overhead outweighs the
// accumulation work. Tensors with fewer than 2×gramStripGrain entries
// compile a single strip and keep the undivided serial accumulation
// order. A package constant — NOT AutoGrain — because the strip grid
// feeds a floating-point merge tree and must be a pure function of the
// input.
const gramStripGrain = 2048

// gramMaxStrips bounds the reduction grid (and so the pooled partial
// matrices alive at once). 32 strips keep merge depth at 5 while leaving
// enough strips to balance across any realistic worker count.
const gramMaxStrips = 32

// CompileModePlan builds the sorted triple layout and group bounds of s for
// mode n. The column keys are computed in parallel (disjoint entry ranges);
// the stable sort keeps storage order within a column group, which is what
// preserves the serial floating-point accumulation order in every consumer.
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

	// Reduction grid: contiguous group runs balanced by entry count.
	weights := make([]int, p.NumGroups())
	for gi := range weights {
		weights[gi] = p.Bounds[gi+1] - p.Bounds[gi]
	}
	p.Strips = parallel.BalancedStripBounds(weights, gramStripGrain, gramMaxStrips)
	return p
}
