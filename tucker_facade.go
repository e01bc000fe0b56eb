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
	// Sketch enables the randomized sketch fast path (see Config.Sketch);
	// Seed 0 defaults to 1.
	Sketch SketchConfig
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
// with HOOI sweeps, optionally on the randomized sketch fast path) over a
// raw sparse tensor with cooperative cancellation — the facade entry
// point for tensors that did not come out of the M2TD pipeline, so CLI
// tools and the campaign server never call internal/tucker directly.
func TuckerCtx(ctx context.Context, x *tensor.Sparse, opts TuckerOptions) (*TuckerResult, error) {
	if x == nil || x.Order() == 0 {
		return nil, fmt.Errorf("m2td: TuckerCtx needs a non-empty tensor")
	}
	cfg := Config{Rank: opts.Rank, Sketch: opts.Sketch}.normalize()
	ranks := opts.Ranks
	if ranks == nil {
		ranks = tucker.UniformRanks(x.Order(), cfg.Rank)
	}
	if f := cfg.Sketch.KeepFrac; f < 0 || f > 1 {
		return nil, fmt.Errorf("m2td: Sketch.KeepFrac %v outside (0, 1]", f)
	}
	res := &TuckerResult{}
	err := runStage(ctx, opts.Trace, "tucker", "tucker", 0, func(ctx context.Context, span *obs.Span) (err error) {
		var stats *tucker.SketchStats
		if res.Decomposition, stats, err = tuckerOf(ctx, span, x, ranks, cfg.Sketch, opts.HOOI, opts.Parallel); stats != nil {
			res.Sketched, res.SketchKept, res.SketchInput = true, stats.Kept, stats.InputNNZ
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	res.Ranks = res.Decomposition.Ranks
	return res, nil
}

// tuckerOf is the raw-tensor Tucker decomposition TuckerCtx and BaselineCtx
// share, under the caller's stage span: HOSVD, optionally HOOI-refined,
// either optionally on the sketch fast path (stats is nil unless sketched).
// The context is checked before the kernels run; only HOOI's sweeps —
// sketched or not — observe it after.
func tuckerOf(ctx context.Context, span *obs.Span, x *tensor.Sparse, ranks []int, sketch SketchConfig, hooi bool, workers int) (dec tucker.Decomposition, stats *tucker.SketchStats, err error) {
	if err := ctx.Err(); err != nil {
		return dec, nil, err
	}
	hopts := tucker.HOOIOptions{Workers: workers, Span: span}
	switch {
	case sketch.KeepFrac > 0:
		sopts := tucker.SketchOptions{KeepFrac: sketch.KeepFrac, Seed: sketch.Seed, Workers: workers, Span: span}
		var st tucker.SketchStats
		if hooi {
			dec, st, err = tucker.SketchedHOOI(ctx, x, ranks, sopts, hopts)
		} else {
			dec, st, err = tucker.SketchedHOSVD(x, ranks, sopts)
		}
		return dec, &st, err
	case hooi:
		dec, err = tucker.HOOICtx(ctx, x, ranks, hopts)
		return dec, nil, err
	}
	return tucker.HOSVDSpan(x, ranks, workers, span), nil, nil
}
