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

// TimeFiber evaluates the Tucker model on the time fiber of one parameter
// combination: out[t] = Σ_r G[r]·Π U(m)(i_m, r_m)·U(T)(t, r_T).
// Implemented as a chain of mode products with 1-row matrices, leaving a
// length-T vector.
func (m TuckerModel) TimeFiber(paramIdx []int, timeSamples int) []float64 {
	order := len(m.Factors)
	cur := m.Core
	// Contract every parameter mode with the corresponding factor row.
	for mode := 0; mode < order-1; mode++ {
		row := mat.FromSlice(1, m.Factors[mode].Cols, append([]float64(nil), m.Factors[mode].Row(paramIdx[mode])...))
		cur = tensor.TTM(cur, mode, row)
	}
	// Expand the time mode through its full factor.
	cur = tensor.TTM(cur, order-1, m.Factors[order-1])
	out := make([]float64, timeSamples)
	copy(out, cur.Data)
	return out
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
