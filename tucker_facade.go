package m2td

import (
	"context"
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/tensor"
	"repro/internal/tucker"
)

// TuckerOptions configures TuckerCtx — the facade's raw-tensor Tucker
// entry point (cmd/tensorstore decompose). The zero value runs plain
// HOSVD at uniform rank 4 on all CPUs.
type TuckerOptions struct {
	// Rank is the uniform per-mode target rank (0 = 4). Ranks, when
	// non-nil, overrides it with explicit per-mode ranks.
	Rank  int
	Ranks []int
	// HOOI refines the HOSVD initialisation with alternating HOOI sweeps.
	HOOI bool
	// Parallel is the worker-pool size for the decomposition kernels
	// (0 = all CPUs, 1 = serial). Results are bit-identical for any value.
	Parallel int
	// Trace, when non-nil, receives a "tucker" stage span under its root.
	Trace *obs.Trace
}

// TuckerResult is the outcome of TuckerCtx.
type TuckerResult struct {
	// Decomposition is the Tucker core + factors; pass it directly to
	// store.SaveDecomposition.
	Decomposition tucker.Decomposition
	// Ranks are the effective (shape-clipped) per-mode ranks.
	Ranks []int
}

// Fit returns the Tucker fit 1 − ‖X − X̂‖F/‖X‖F of the decomposition
// against the tensor it was computed from.
func (r *TuckerResult) Fit(x *tensor.Sparse) (float64, error) {
	return tucker.FitOf(r.Decomposition, x)
}

// TuckerCtx runs a plain Tucker decomposition (HOSVD, optionally refined
// with HOOI sweeps) over a raw sparse tensor with cooperative cancellation
// — the facade entry point for tensors that did not come out of the M2TD
// pipeline, so CLI tools and the campaign server never call
// internal/tucker directly. The ranks are checked, the values too — the
// kernels' Grams need a finite squared norm, so a NaN, ±Inf or a cell
// near 1e200 is an error, not a NaN fit — and the context polled before
// the kernels run; only HOOI's sweeps observe it after.
func TuckerCtx(ctx context.Context, x *tensor.Sparse, opts TuckerOptions) (*TuckerResult, error) {
	if x == nil || x.Order() == 0 {
		return nil, fmt.Errorf("m2td: TuckerCtx needs a non-empty tensor")
	}
	ranks := opts.Ranks
	if ranks == nil {
		if opts.Rank < 0 {
			return nil, fmt.Errorf("m2td: Rank %d must be positive (0 = 4)", opts.Rank)
		}
		ranks = tucker.UniformRanks(x.Order(), Config{Rank: opts.Rank}.normalize().Rank)
	}
	if len(ranks) != x.Order() {
		return nil, fmt.Errorf("m2td: Ranks has %d entries for an order-%d tensor", len(ranks), x.Order())
	}
	for n, r := range ranks {
		if r <= 0 {
			return nil, fmt.Errorf("m2td: Ranks[%d] = %d must be positive", n, r)
		}
	}
	if norm := x.Norm(); math.IsNaN(norm) || math.IsInf(norm, 0) {
		return nil, fmt.Errorf("m2td: TuckerCtx needs a tensor with a finite norm, got %v", norm)
	}
	res := &TuckerResult{}
	err := runStage(ctx, opts.Trace, "tucker", "tucker", func(ctx context.Context, span *obs.Span) (err error) {
		if err := ctx.Err(); err != nil {
			return err
		}
		if opts.HOOI {
			res.Decomposition, err = tucker.HOOICtx(ctx, x, ranks, tucker.HOOIOptions{Workers: opts.Parallel, Span: span})
			return err
		}
		res.Decomposition = tucker.HOSVDSpan(x, ranks, opts.Parallel, span)
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Ranks = res.Decomposition.Ranks
	return res, nil
}
