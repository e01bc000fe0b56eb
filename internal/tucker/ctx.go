package tucker

import (
	"context"
	"fmt"

	"repro/internal/mat"
	"repro/internal/tensor"
)

// HOOICtx computes a Tucker decomposition by higher-order orthogonal
// iteration: starting from the HOSVD factors, it alternately re-optimises
// each mode's factor as the leading subspace of the tensor projected
// through all other factors. HOOI's reconstruction error is never worse
// than HOSVD's (it monotonically increases the captured core energy) and
// is often better at aggressive rank truncations. HOSVD remains the
// building block the paper's M2TD uses; HOOI is the quality upgrade for
// standalone Tucker decompositions of ensemble tensors.
//
// The context is polled between whole mode updates and between sweeps —
// never inside a kernel — so a cancelled HOOI stops at a consistent
// point: any kernel it started has finished, all pool workers are joined,
// and no partially written factor escapes (the Decomposition returned
// with a non-nil error is the zero value).
func HOOICtx(ctx context.Context, x *tensor.Sparse, ranks []int, opts HOOIOptions) (Decomposition, error) {
	ranks = ClipRanks(x.Shape, ranks)
	order := x.Order()
	w := opts.Workers

	if err := ctx.Err(); err != nil {
		return Decomposition{}, err
	}

	// Initialise from HOSVD.
	ispan := opts.Span.Start("init")
	dec := HOSVDSpan(x, ranks, w, ispan)
	ispan.Finish()
	factors := dec.Factors

	ms := make([]*mat.Matrix, order)
	prevEnergy := dec.Core.Norm()
	var core *tensor.Dense
	sweeps := 0
	for iter := 0; iter < hooiMaxIterations; iter++ {
		// The per-sweep span is structural: whether a sweep runs depends
		// only on the data and the tolerance (never on the worker count),
		// so the sweep children and the final "sweeps" counter are
		// deterministic.
		sw := opts.Span.Start(fmt.Sprintf("sweep%d", iter))
		var y *tensor.Dense
		for n := 0; n < order; n++ {
			if err := ctx.Err(); err != nil {
				sw.Finish()
				return Decomposition{}, err
			}
			// Project through every factor except mode n.
			for k := 0; k < order; k++ {
				if k != n {
					ms[k] = mat.Transpose(factors[k])
				} else {
					ms[k] = nil
				}
			}
			y = tensor.MultiTTMSparseWorkers(x, ms, w)
			factors[n] = mat.LeadingEigenvectors(tensor.ModeGramDenseWorkers(y, n, w), ranks[n])
		}
		if err := ctx.Err(); err != nil {
			sw.Finish()
			return Decomposition{}, err
		}
		// The last update projected X through every factor but the last
		// with the operations the core's chain starts with, so one more
		// product is the core. Order 1 has nothing to reuse: its update
		// densified X, and a dense product would sum its entries in
		// another order than the sparse chain does.
		last := mat.Transpose(factors[order-1])
		if order == 1 {
			core = tensor.MultiTTMSparseWorkers(x, []*mat.Matrix{last}, w)
		} else {
			core = tensor.TTMWorkers(y, order-1, last, w)
		}
		energy := core.Norm()
		sw.Finish()
		sweeps = iter + 1
		if energy-prevEnergy <= hooiTolerance*(prevEnergy+1e-300) {
			break
		}
		prevEnergy = energy
	}
	opts.Span.Set("sweeps", int64(sweeps))
	return Decomposition{Core: core, Factors: factors, Ranks: ranks}, nil
}
