package tensor

import (
	"fmt"
	"math"

	"repro/internal/parallel"
)

// Deterministic entry selection: the storage-layer half of the sketch
// fast path (tucker.Sketch). The tucker package decides per entry whether
// it is kept and at what value (a pure function of seed + cell index);
// this file materialises that decision — in parallel, bit-identically to
// a serial filter for any worker count — and derives the new tensor's
// kernel plans from the source's cached ones instead of recompiling them.

// absSumStripGrain is the minimum entries per AbsSum reduction strip. A
// package constant — NOT AutoGrain — because the strip grid feeds a
// floating-point merge tree and must be a pure function of the input
// (DESIGN.md §11).
const absSumStripGrain = 4096

// absSumMaxStrips bounds the AbsSum reduction grid; the partials are
// single float64s, so the only cost of more strips is merge bookkeeping.
const absSumMaxStrips = 32

// AbsSum returns Σ|v| over the stored entries, reduced over a fixed strip
// grid (a pure function of nnz and package constants) with the partials
// merged through parallel.ReduceStrips' fixed pairwise tree — bit-identical
// for any worker count. Single-strip inputs (nnz < 2×absSumStripGrain)
// keep the undivided serial accumulation order.
func (s *Sparse) AbsSum(workers int) float64 {
	nnz := s.NNZ()
	if nnz == 0 {
		return 0
	}
	bounds := parallel.UniformStripBounds(nnz, absSumStripGrain, absSumMaxStrips)
	sum := parallel.ReduceStrips(bounds, workers,
		func(int) *float64 { return new(float64) },
		func(p *float64, _, lo, hi int) {
			var t float64
			for _, v := range s.Vals[lo:hi] {
				t += math.Abs(v)
			}
			*p = t
		},
		func(into, from *float64) *float64 { *into += *from; return into },
		nil,
	)
	return *sum
}

// SelectScaled returns a new tensor over the same shape containing exactly
// the entries e with keep[e], valued scaled[e], in storage order. The
// output is identical to a serial keep-filter loop for any worker count:
// workers partition a fixed strip grid, per-strip kept counts turn into
// exclusive prefix offsets serially, and each strip then copies its kept
// entries into its own disjoint output range.
//
// The output inherits the source's quarantine configuration and
// accounting (RejectNonFinite, Rejected) — a selection is a view of the
// same ingest history, so degraded-density reporting must survive it.
//
// For every mode with a cached source plan (HasPlanMode), the output's
// ModePlan is DERIVED instead of recompiled: filtering a stably-sorted
// sequence preserves its order, so walking the source plan and keeping
// the selected entries yields exactly the plan compileModePlan would
// build — minus the O(nnz log nnz) sort. Modes without a cached plan are
// left to compile on demand (building a source plan just to derive from
// it could never amortize — the same transient-tensor trap
// ttmSparseKernel avoids). The number of derived plans is returned.
func (s *Sparse) SelectScaled(keep []bool, scaled []float64, workers int) (*Sparse, int) {
	nnz := s.NNZ()
	if len(keep) != nnz || len(scaled) != nnz {
		panic(fmt.Sprintf("tensor: SelectScaled mask/value length %d/%d != nnz %d", len(keep), len(scaled), nnz))
	}
	o := s.Order()
	out := NewSparse(s.Shape)
	out.RejectNonFinite = s.RejectNonFinite
	out.Rejected = s.Rejected
	if nnz == 0 {
		return out, 0
	}

	// Strip grid for the count/fill passes. Selection output is pure
	// integer bookkeeping plus copies — no floating-point reduction — so
	// the grid affects scheduling only; it is fixed anyway so the prefix
	// offsets are computed once, not per worker count.
	bounds := parallel.UniformStripBounds(nnz, selectStripGrain, selectMaxStrips)
	strips := len(bounds) - 1
	counts := make([]int, strips)
	parallel.For(strips, workers, func(s0, s1 int) {
		for st := s0; st < s1; st++ {
			c := 0
			for _, k := range keep[bounds[st]:bounds[st+1]] {
				if k {
					c++
				}
			}
			counts[st] = c
		}
	})
	offsets := make([]int, strips+1)
	for st := 0; st < strips; st++ {
		offsets[st+1] = offsets[st] + counts[st]
	}
	kept := offsets[strips]
	if kept == 0 {
		// Nothing survived; an empty tensor compiles trivial plans on
		// demand (kernels return before consulting them anyway).
		return out, 0
	}
	out.Idx = make([]int, kept*o)
	out.Vals = make([]float64, kept)
	// newOf maps a kept source entry to its output position (dense rank
	// among kept entries); consumed by plan derivation.
	newOf := make([]int, nnz)
	parallel.For(strips, workers, func(s0, s1 int) {
		for st := s0; st < s1; st++ {
			pos := offsets[st]
			for e := bounds[st]; e < bounds[st+1]; e++ {
				if !keep[e] {
					continue
				}
				copy(out.Idx[pos*o:(pos+1)*o], s.Idx[e*o:(e+1)*o])
				out.Vals[pos] = scaled[e]
				newOf[e] = pos
				pos++
			}
		}
	})

	derived := 0
	for n := 0; n < o; n++ {
		if !s.HasPlanMode(n) {
			continue
		}
		out.installPlan(deriveSelectedPlan(s.PlanMode(n, workers), keep, scaled, newOf))
		derived++
	}
	return out, derived
}

// selectStripGrain / selectMaxStrips fix the SelectScaled strip grid.
const (
	selectStripGrain = 4096
	selectMaxStrips  = 32
)

// deriveSelectedPlan builds the selected tensor's mode plan by filtering
// the source plan in order. Correctness argument: compileModePlan
// stable-sorts entries by matricization column with storage order inside
// each column. The selected tensor preserves the source's relative
// storage order and every kept entry keeps its coordinates, so filtering
// the source's sorted sequence yields exactly the stable sort of the
// selected entries. Column groups are the source's groups restricted to
// kept entries, with emptied groups dropped; the reduction grid is
// recompiled from the surviving group weights through the same
// BalancedStripBounds call compileModePlan uses, so the derived plan is
// bit-identical to a freshly compiled one (asserted by
// TestSelectScaledDerivedPlanMatchesCompiled).
func deriveSelectedPlan(src *ModePlan, keep []bool, scaled []float64, newOf []int) *ModePlan {
	p := &ModePlan{Mode: src.Mode}
	n := len(src.Ents)
	p.Ents = make([]int, 0, n)
	p.Rows = make([]int, 0, n)
	p.Vals = make([]float64, 0, n)
	p.Bounds = make([]int, 0, len(src.Bounds))
	for g := 0; g < src.NumGroups(); g++ {
		start := len(p.Ents)
		for i := src.Bounds[g]; i < src.Bounds[g+1]; i++ {
			e := src.Ents[i]
			if !keep[e] {
				continue
			}
			p.Ents = append(p.Ents, newOf[e])
			p.Rows = append(p.Rows, src.Rows[i])
			p.Vals = append(p.Vals, scaled[e])
		}
		if len(p.Ents) > start {
			p.Bounds = append(p.Bounds, start)
		}
	}
	p.Bounds = append(p.Bounds, len(p.Ents))
	weights := make([]int, p.NumGroups())
	for gi := range weights {
		weights[gi] = p.Bounds[gi+1] - p.Bounds[gi]
	}
	p.Strips = parallel.BalancedStripBounds(weights, gramStripGrain, gramMaxStrips)
	return p
}

// installPlan caches a finished plan on the tensor's current generation,
// exactly as PlanMode would after building it. The plan must describe the
// tensor's current contents. Installation is not counted as a build or a
// hit: PlanStats keeps counting kernel-driven compiles and reuses only,
// so its deltas stay deterministic span counters; the first PlanMode call
// against an installed plan registers as a hit.
func (s *Sparse) installPlan(p *ModePlan) {
	s.planMu.Lock()
	if s.plans == nil || s.plans.gen != s.gen {
		s.plans = &planCache{gen: s.gen, modes: make([]*planEntry, s.Order())}
	}
	e := s.plans.modes[p.Mode]
	if e == nil {
		e = &planEntry{}
		s.plans.modes[p.Mode] = e
	}
	s.planMu.Unlock()
	e.once.Do(func() {
		e.plan = p
		e.done.Store(true)
	})
}
