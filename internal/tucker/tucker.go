// Package tucker implements Tucker decomposition via HOSVD (Algorithm 1 of
// the paper): for each mode, the factor matrix holds the leading left
// singular vectors of the mode-n matricization, and the core tensor is
// recovered as G = X ×₁ U(1)ᵀ ×₂ … ×ₙ U(N)ᵀ.
//
// Left singular vectors are obtained from the eigendecomposition of the
// small Iₙ×Iₙ matricization Gram matrix, computed directly from sparse
// coordinates (tensor.ModeGramWorkers, over the fibre runs the storage
// holds) or dense fibers (tensor.ModeGramDenseWorkers), so the potentially
// enormous unfoldings are never materialised.
package tucker

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Decomposition is a Tucker decomposition: a dense core and one factor
// matrix (Iₙ × rₙ, orthonormal columns) per mode.
type Decomposition struct {
	Core    *tensor.Dense
	Factors []*mat.Matrix
	// Ranks holds the effective (clipped) per-mode ranks.
	Ranks []int
}

// ClipRanks bounds each requested rank by its mode size.
func ClipRanks(shape tensor.Shape, ranks []int) []int {
	if len(ranks) != shape.Order() {
		panic(fmt.Sprintf("tucker: %d ranks for order-%d tensor", len(ranks), shape.Order()))
	}
	out := make([]int, len(ranks))
	for n, r := range ranks {
		if r < 1 {
			panic(fmt.Sprintf("tucker: rank %d for mode %d must be positive", r, n))
		}
		if r > shape[n] {
			r = shape[n]
		}
		out[n] = r
	}
	return out
}

// UniformRanks returns an order-length rank vector with every entry r, the
// paper's uniform target-rank setting.
func UniformRanks(order, r int) []int {
	out := make([]int, order)
	for i := range out {
		out[i] = r
	}
	return out
}

// HOSVD decomposes a sparse tensor with the given per-mode target ranks.
// It runs on the package-default worker pool; see HOSVDWorkers.
func HOSVD(x *tensor.Sparse, ranks []int) Decomposition { return HOSVDWorkers(x, ranks, 0) }

// HOSVDWorkers is HOSVD on an explicit worker count (workers <= 0 selects
// the parallel package default, 1 forces serial execution). The per-mode
// factor extractions are independent by construction, so they run
// concurrently — one task per mode, each itself using the parallel Gram
// kernels — and the core recovery is the sparse entry scatter followed by
// the parallel dense TTM chain.
// Every mode's factor is computed exactly as in the serial loop, so the
// decomposition is bit-identical for any worker count.
func HOSVDWorkers(x *tensor.Sparse, ranks []int, workers int) Decomposition {
	return HOSVDSpan(x, ranks, workers, nil)
}

// HOSVDSpan is HOSVDWorkers with stage-span instrumentation: one child
// span per mode (created serially before the pool runs, so the child
// order is mode order for any worker count) plus a "core" child for the
// TTM chain. Span counters — per-mode ranks and the core cell count —
// depend only on the tensor shape and ranks, so the span structure is
// deterministic. A nil span disables instrumentation at the cost of one
// nil check per site.
func HOSVDSpan(x *tensor.Sparse, ranks []int, workers int, span *obs.Span) Decomposition {
	ranks = ClipRanks(x.Shape, ranks)
	order := x.Order()
	factors := make([]*mat.Matrix, order)
	tasks := make([]func(), order)
	// Split the worker budget between the concurrent per-mode tasks and
	// the kernels inside them, so a workers=W request occupies ~W
	// goroutines rather than W per mode. Purely scheduling: the Gram
	// strip grids are worker-independent, so the split never changes bits.
	inner := parallel.SplitWorkers(workers, order)
	for n := 0; n < order; n++ {
		n := n
		ms := span.Start(fmt.Sprintf("mode%d", n))
		ms.Set("rank", int64(ranks[n]))
		tasks[n] = func() {
			defer ms.Finish()
			factors[n] = tensor.LeadingModeVectorsWorkers(x, n, ranks[n], inner)
		}
	}
	parallel.Do(workers, tasks...)
	cs := span.Start("core")
	core := tensor.MultiTTMSparseWorkers(x, tensor.TransposeAll(factors), workers)
	cs.Set("cells", int64(len(core.Data)))
	cs.Finish()
	return Decomposition{Core: core, Factors: factors, Ranks: ranks}
}

// Reconstruct expands the decomposition back to the full tensor:
// X̃ = G ×₁ U(1) ×₂ … ×ₙ U(N).
func (d Decomposition) Reconstruct() *tensor.Dense {
	return tensor.TuckerReconstruct(d.Core, d.Factors)
}

// RelativeError returns ‖X̃ − ref‖F / ‖ref‖F for the decomposition's
// reconstruction against a reference tensor of the same shape.
func (d Decomposition) RelativeError(ref *tensor.Dense) float64 {
	recon := d.Reconstruct()
	return recon.Sub(ref).Norm() / ref.Norm()
}

// CoreFromFactors recovers a core tensor for externally supplied factor
// matrices: G = X ×₁ U(1)ᵀ …. M2TD uses this to project the join tensor
// through fused factor matrices. It runs on the package-default worker
// pool; see CoreFromFactorsWorkers.
func CoreFromFactors(x *tensor.Sparse, factors []*mat.Matrix) *tensor.Dense {
	return CoreFromFactorsWorkers(x, factors, 0)
}

// CoreFromFactorsWorkers is CoreFromFactors on an explicit worker count.
func CoreFromFactorsWorkers(x *tensor.Sparse, factors []*mat.Matrix, workers int) *tensor.Dense {
	return tensor.MultiTTMSparseWorkers(x, tensor.TransposeAll(factors), workers)
}
