package tucker

import (
	"fmt"
	"math"

	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// HOOI runs at most hooiMaxIterations alternating sweeps and stops early
// once a sweep improves the captured core energy by less than
// hooiTolerance, relative.
const (
	hooiMaxIterations = 10
	hooiTolerance     = 1e-8
)

// HOOIOptions configures higher-order orthogonal iteration.
type HOOIOptions struct {
	// Workers is the worker-pool size for the TTM/Gram kernels inside each
	// sweep (and the HOSVD initialisation). 0 selects the parallel package
	// default (GOMAXPROCS); 1 forces serial execution. The alternating mode
	// updates themselves stay sequential — each mode re-optimises against
	// the latest factors of the others (Gauss–Seidel), which is what gives
	// HOOI its monotone energy guarantee — but every kernel inside a sweep
	// fans out. Results are bit-identical for any worker count.
	Workers int
	// Span, when non-nil, is the decompose stage span: HOOICtx opens one
	// child for the HOSVD initialisation (with per-mode sub-spans) and one
	// per alternating sweep, and records the executed sweep count as a
	// deterministic counter. A nil Span costs one nil check per site.
	Span *obs.Span
}

// FitOf returns the Tucker fit 1 − ‖X − X̂‖F/‖X‖F of a decomposition
// against the sparse tensor it was computed from, using the identity
// ‖X − X̂‖² = ‖X‖² − ‖G‖² (valid for orthonormal factors).
func FitOf(d Decomposition, x *tensor.Sparse) (float64, error) {
	for n, f := range d.Factors {
		if !mat.IsOrthonormalCols(f, 1e-6) {
			return 0, fmt.Errorf("tucker: factor %d is not orthonormal; FitOf requires orthonormal factors", n)
		}
	}
	xn := x.Norm()
	if xn == 0 {
		return 1, nil
	}
	gn := d.Core.Norm()
	// The identity cancels: ‖X‖² and ‖G‖² each carry rounding that grows
	// with the cells summed, so a difference within nnz ulps of ‖X‖² is no
	// misfit, of either sign. A misfit under √(nnz·2⁻⁵²) reads as a fit of 1.
	resid := xn*xn - gn*gn
	if resid <= float64(x.NNZ())*0x1p-52*xn*xn {
		resid = 0
	}
	return 1 - math.Sqrt(resid)/xn, nil
}
