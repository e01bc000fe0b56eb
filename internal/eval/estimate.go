package eval

import (
	"fmt"
	"math/rand"

	"repro/internal/ensemble"
	"repro/internal/mat"
	"repro/internal/tensor"
)

// TuckerModel is anything that exposes a Tucker decomposition — both
// core.Result and tucker.Decomposition satisfy it structurally via
// adapters below.
type TuckerModel struct {
	Core    *tensor.Dense
	Factors []*mat.Matrix
}

// EstimateAccuracy estimates the paper's accuracy metric without ever
// materialising the ground-truth tensor: it samples sampleSims parameter
// combinations uniformly, simulates only those (sampleFibers, one time
// fiber each), and evaluates the Tucker model on the same fibers
// (EstimateFromFibers). Sampling fibers uniformly makes both ‖X̃−Y‖² and
// ‖Y‖² estimates proportional to their true values with the same
// constant, so the ratio — and hence the accuracy — is a consistent
// estimator.
//
// This removes the memory gate that forces scaled-down resolutions: the
// exact metric needs the res⁴·T ground-truth tensor (13+ GB at the
// paper's resolution 70), the estimate needs O(sampleSims·T) values.
func EstimateAccuracy(space *ensemble.Space, model TuckerModel, sampleSims int, rng *rand.Rand) (float64, error) {
	if sampleSims < 1 {
		return 0, fmt.Errorf("eval: sampleSims must be positive, got %d", sampleSims)
	}
	if shape := space.Shape(); !model.coreShapeMatches(shape) {
		return 0, fmt.Errorf("eval: model factors do not match space shape %v", shape)
	}
	return EstimateFromFibers(model, sampleFibers(space, sampleSims, rng))
}

// TimeFiber evaluates the Tucker model on one time fiber, given one row
// per parameter mode in place of that mode's factor:
// out[t] = Σ_r G[r]·Π rows[m][r_m]·U(T)(t, r_T). The estimator passes
// factor rows at grid indices (GridRows); Report.Predict passes rows
// interpolated between grid points. Implemented as a chain of mode
// products with 1-row matrices, leaving a length-T vector.
func (m TuckerModel) TimeFiber(rows [][]float64) []float64 {
	cur := m.Core
	for mode, row := range rows {
		cur = tensor.TTM(cur, mode, mat.FromSlice(1, len(row), row))
	}
	// Expand the time mode through its full factor.
	tm := len(m.Factors) - 1
	return tensor.TTM(cur, tm, m.Factors[tm]).Data
}

// GridRows returns each parameter mode's factor row at the grid index
// paramIdx[mode], the rows TimeFiber takes for an on-grid fiber.
func (m TuckerModel) GridRows(paramIdx []int) [][]float64 {
	rows := make([][]float64, len(paramIdx))
	for mode, i := range paramIdx {
		rows[mode] = m.Factors[mode].Row(i)
	}
	return rows
}

// coreShapeMatches verifies factor row counts against the space shape.
func (m TuckerModel) coreShapeMatches(shape tensor.Shape) bool {
	if len(m.Factors) != shape.Order() {
		return false
	}
	for mode, f := range m.Factors {
		if f.Rows != shape[mode] {
			return false
		}
	}
	return true
}
