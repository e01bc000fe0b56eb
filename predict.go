package m2td

import (
	"fmt"
	"math"

	"repro/internal/dynsys"
	"repro/internal/eval"
	"repro/internal/mat"
)

// Predict evaluates the decomposition at arbitrary physical parameter
// values — including values between grid points — returning the predicted
// cell values (distance to the observed system) for every timestamp.
// This is the pay-off the paper motivates: after spending B simulations,
// the decomposition answers "what would a simulation at these parameters
// look like?" for the entire space without running the simulator.
//
// Off-grid parameter values are handled by linear interpolation between
// the two bracketing rows of each parameter mode's factor matrix (the
// Tucker model is multilinear in the factor rows, so this is exact
// multilinear interpolation of the reconstruction). Values outside a
// parameter's range, ±Inf included, are clamped to it; a NaN value is an
// error. The rows are contracted by the accuracy estimator's own
// eval.TuckerModel.TimeFiber, so on grid points Predict returns its bits.
func (r *Report) Predict(paramValues []float64) ([]float64, error) {
	space := r.Space
	if r.Decomposition == nil {
		return nil, fmt.Errorf("m2td: report carries no decomposition")
	}
	ps := space.Sys.Params()
	if len(paramValues) != len(ps) {
		return nil, fmt.Errorf("m2td: %d parameter values for %d parameters", len(paramValues), len(ps))
	}
	model := eval.TuckerModel{Core: r.Decomposition.Core, Factors: r.Decomposition.Factors}
	rows := make([][]float64, len(ps))
	for mode, p := range ps {
		row, err := interpolatedRow(model.Factors[mode], p, paramValues[mode], space.Res)
		if err != nil {
			return nil, err
		}
		rows[mode] = row
	}
	return model.TimeFiber(rows), nil
}

// interpolatedRow returns the factor row for a physical parameter value:
// the exact row on grid points, the linear blend of the two bracketing
// rows otherwise.
func interpolatedRow(f *mat.Matrix, p dynsys.Param, value float64, res int) ([]float64, error) {
	if math.IsNaN(value) {
		return nil, fmt.Errorf("m2td: parameter %s is NaN", p.Name)
	}
	if res <= 1 {
		return append([]float64(nil), f.Row(0)...), nil
	}
	// Continuous grid coordinate in [0, res-1].
	t := (value - p.Min) / (p.Max - p.Min) * float64(res-1)
	if t < 0 {
		t = 0
	}
	if t > float64(res-1) {
		t = float64(res - 1)
	}
	lo := int(t)
	hi := lo + 1
	if hi > res-1 {
		hi = res - 1
	}
	w := t - float64(lo)
	out := make([]float64, f.Cols)
	rowLo, rowHi := f.Row(lo), f.Row(hi)
	for c := range out {
		out[c] = (1-w)*rowLo[c] + w*rowHi[c]
	}
	return out, nil
}
