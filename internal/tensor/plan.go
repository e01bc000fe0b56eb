package tensor

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/parallel"
)

// ModePlan is a compiled kernel plan for one mode of a sparse tensor: the
// stored entries laid out in ascending mode-n matricization-column order
// (ties broken by storage order — a stable sort), split into column
// groups. Computing this layout is the per-call setup cost every sparse
// mode kernel used to pay (an O(nnz log nnz) sort per mode per call);
// compiling it once per (tensor, mode) and caching it on the tensor
// amortises that cost across all HOSVD modes and every HOOI sweep.
//
// The plan is consumed by ModeGramWorkers (column groups are the outer
// products of the Gram accumulation), TTMSparseWorkers (column groups are
// write-disjoint output cells, so workers partition groups instead of
// re-scanning every entry per output slab), and, through those, by
// LeadingModeVectorsWorkers, HOSVD and HOOI.
//
// A plan is immutable once built. It aliases no tensor storage: Rows and
// Vals are copies in plan order, so kernels touch two flat arrays with
// perfect locality instead of strided multi-index decodes.
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

// planEntry is one lazily-built per-mode plan slot. done is set (with
// release semantics) only after once has stored the finished plan, so
// HasPlanMode can answer "is a plan ready right now" without taking the
// build path or racing a concurrent builder.
type planEntry struct {
	once sync.Once
	plan *ModePlan
	done atomic.Bool
}

// planCache holds the per-mode plan slots for one tensor generation.
type planCache struct {
	gen   uint64
	modes []*planEntry
}

// InvalidatePlans discards all cached mode plans by bumping the tensor's
// mutation generation. The mutating methods (Append, AppendBlock, Dedup)
// call it automatically; code that mutates Idx or Vals directly must call
// it before the next kernel invocation, or kernels will keep serving the
// stale compiled layout.
func (s *Sparse) InvalidatePlans() { s.gen++ }

// PlanMode returns the compiled kernel plan for mode n, building and
// caching it on first use. Subsequent calls (from any kernel, any worker
// count) return the cached plan until the tensor is mutated. It is safe
// for concurrent use: plans for different modes build in parallel, and
// concurrent requests for the same mode block on a single build.
func (s *Sparse) PlanMode(n, workers int) *ModePlan {
	if n < 0 || n >= s.Order() {
		panic(fmt.Sprintf("tensor: PlanMode mode %d out of range for order %d", n, s.Order()))
	}
	s.planMu.Lock()
	if s.plans == nil || s.plans.gen != s.gen {
		s.plans = &planCache{gen: s.gen, modes: make([]*planEntry, s.Order())}
	}
	e := s.plans.modes[n]
	if e == nil {
		e = &planEntry{}
		s.plans.modes[n] = e
	}
	s.planMu.Unlock()
	built := false
	e.once.Do(func() {
		e.plan = compileModePlan(s, n, workers)
		e.done.Store(true)
		built = true
	})
	// Cache accounting: exactly one caller per (generation, mode) observes
	// the build; every other call is a hit. Both counts depend only on how
	// many kernel invocations the algorithm performs — never on the worker
	// count — so per-tensor deltas are valid deterministic span counters.
	if built {
		s.planBuilds.Add(1)
		planBuildsTotal.Inc()
	} else {
		s.planHits.Add(1)
		planHitsTotal.Inc()
	}
	return e.plan
}

// HasPlanMode reports whether a finished plan for mode n is cached for
// the tensor's current generation. Kernels that can run either planned
// or unplanned (bit-identically) use it to avoid compiling a plan that
// will never amortize: a cached plan is free to use, but building one
// for a transient tensor that dies after a single kernel call costs an
// O(nnz log nnz) stable sort — more than the kernel itself when no real
// parallelism is available (see ttmSparseKernel).
func (s *Sparse) HasPlanMode(n int) bool {
	if n < 0 || n >= s.Order() {
		return false
	}
	s.planMu.Lock()
	defer s.planMu.Unlock()
	if s.plans == nil || s.plans.gen != s.gen {
		return false
	}
	e := s.plans.modes[n]
	return e != nil && e.done.Load()
}

// PlanStats returns this tensor's kernel-plan cache accounting: builds
// (cache misses, one per (tensor generation, mode)) and hits (kernel
// invocations served by a cached plan). Both counts depend only on the
// sequence of kernel invocations — never on the worker count — so stage
// spans may record their deltas as deterministic counters.
func (s *Sparse) PlanStats() (builds, hits int64) {
	return s.planBuilds.Load(), s.planHits.Load()
}

// compileModePlan builds the sorted triple layout and group bounds for one
// mode. The column keys are computed in parallel (disjoint entry ranges);
// the stable sort keeps storage order within a column group, which is what
// preserves the serial floating-point accumulation order in every consumer.
func compileModePlan(s *Sparse, n, workers int) *ModePlan {
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
