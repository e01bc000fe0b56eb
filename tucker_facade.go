package m2td

import (
	"context"
	"fmt"

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
	// Sketch decomposes a biased random sketch of the tensor instead of the
	// tensor: for one too large or too dense to decompose exactly.
	Sketch SketchConfig
	// Parallel is the worker-pool size for the decomposition kernels
	// (0 = all CPUs, 1 = serial). Results are bit-identical for any value.
	Parallel int
	// Trace, when non-nil, receives a "tucker" stage span under its root.
	Trace *obs.Trace
}

// SketchConfig configures TuckerOptions.Sketch (tucker.Sketch): each stored
// cell is kept with probability proportional to its magnitude and scaled by
// the inverse of that probability, an unbiased estimator of the tensor at a
// fraction of the nnz. The zero value disables sketching.
type SketchConfig struct {
	// KeepFrac is the expected fraction of stored cells the sketch
	// retains, in (0, 1]. 0 disables sketching; 1 keeps every cell
	// (bit-identical decomposition).
	KeepFrac float64
	// Seed drives the per-cell keep decisions through a counter-based
	// hash — the sketch is a pure function of (tensor, KeepFrac, Seed),
	// identical for any Parallel value. 0 defaults to 1.
	Seed int64
}

// TuckerResult is the outcome of TuckerCtx.
type TuckerResult struct {
	// Decomposition is the Tucker core + factors; pass it directly to
	// store.SaveDecomposition.
	Decomposition tucker.Decomposition
	// Ranks are the effective (shape-clipped) per-mode ranks.
	Ranks []int
	// Sketched reports the sketch fast path ran; SketchKept and
	// SketchInput are the retained and original cell counts when it did.
	Sketched    bool
	SketchKept  int
	SketchInput int
}

// Fit returns the Tucker fit 1 − ‖X − X̂‖F/‖X‖F of the decomposition
// against the tensor it was computed from. Sketched decompositions return
// the fit against the sketch's unbiased estimate, an approximation of the
// exact fit.
func (r *TuckerResult) Fit(x *tensor.Sparse) (float64, error) {
	return tucker.FitOf(r.Decomposition, x)
}

// TuckerCtx runs a plain Tucker decomposition (HOSVD, optionally refined
// with HOOI sweeps, either optionally on a sketch of the tensor) over a
// raw sparse tensor with cooperative cancellation — the facade entry
// point for tensors that did not come out of the M2TD pipeline, so CLI
// tools and the campaign server never call internal/tucker directly. The
// context is checked before the kernels run; only HOOI's sweeps — sketched
// or not — observe it after.
func TuckerCtx(ctx context.Context, x *tensor.Sparse, opts TuckerOptions) (*TuckerResult, error) {
	if x == nil || x.Order() == 0 {
		return nil, fmt.Errorf("m2td: TuckerCtx needs a non-empty tensor")
	}
	ranks := opts.Ranks
	if ranks == nil {
		ranks = tucker.UniformRanks(x.Order(), Config{Rank: opts.Rank}.normalize().Rank)
	}
	sopts := tucker.SketchOptions{KeepFrac: opts.Sketch.KeepFrac, Seed: opts.Sketch.Seed, Workers: opts.Parallel}
	if f := sopts.KeepFrac; !(f >= 0 && f <= 1) { // NaN too
		return nil, fmt.Errorf("m2td: Sketch.KeepFrac %v outside (0, 1]", f)
	}
	if sopts.Seed == 0 {
		sopts.Seed = 1
	}
	res := &TuckerResult{Sketched: sopts.KeepFrac > 0}
	err := runStage(ctx, opts.Trace, "tucker", "tucker", func(ctx context.Context, span *obs.Span) (err error) {
		if err := ctx.Err(); err != nil {
			return err
		}
		sopts.Span = span
		hopts := tucker.HOOIOptions{Workers: opts.Parallel, Span: span}
		var stats tucker.SketchStats
		switch {
		case res.Sketched && opts.HOOI:
			res.Decomposition, stats, err = tucker.SketchedHOOI(ctx, x, ranks, sopts, hopts)
		case res.Sketched:
			res.Decomposition, stats, err = tucker.SketchedHOSVD(x, ranks, sopts)
		case opts.HOOI:
			res.Decomposition, err = tucker.HOOICtx(ctx, x, ranks, hopts)
		default:
			res.Decomposition = tucker.HOSVDSpan(x, ranks, opts.Parallel, span)
		}
		res.SketchKept, res.SketchInput = stats.Kept, stats.InputNNZ
		return err
	})
	if err != nil {
		return nil, err
	}
	res.Ranks = res.Decomposition.Ranks
	return res, nil
}
