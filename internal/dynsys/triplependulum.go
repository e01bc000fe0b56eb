package dynsys

import (
	"math"

	"repro/internal/ode"
)

// TriplePendulum is the triple pendulum with variable friction of
// Section VII-A: three serial point-mass pendulums on massless unit rods.
// Its four variable simulation parameters are the initial angles
// φ₁, φ₂, φ₃ and the friction coefficient f of the whole system. The
// observed state is the three angles (θ₁, θ₂, θ₃).
//
// Dynamics follow the Lagrangian formulation for a serial pendulum chain:
//
//	M(θ)·θ̈ = b(θ, θ̇) − f·θ̇
//
// with mass matrix M_ij = c_ij·cos(θ_i−θ_j), c_ij = Σ_{k ≥ max(i,j)} m_k
// (unit rods), and b_i = −Σ_j c_ij·sin(θ_i−θ_j)·θ̇_j² − (Σ_{k≥i} m_k)·g·sin θ_i.
// The 3×3 system is solved by inlined Gaussian elimination at every
// derivative evaluation.
type TriplePendulum struct {
	// Masses holds the three bob masses (constants; friction is the
	// variable parameter in this system).
	Masses [3]float64
	// G is gravitational acceleration; Horizon the simulated span.
	G, Horizon float64
	// MaxStep caps the RK4 step size; the per-sample step count is derived
	// from it so integration accuracy does not depend on the time-mode
	// resolution.
	MaxStep float64
}

// NewTriplePendulum returns a unit-mass triple pendulum with Earth gravity
// and a 5-second horizon.
func NewTriplePendulum() *TriplePendulum {
	return &TriplePendulum{Masses: [3]float64{1, 1, 1}, G: 9.81, Horizon: 5, MaxStep: 0.01}
}

// Name implements System.
func (tp *TriplePendulum) Name() string { return "triple-pendulum" }

// Params implements System.
func (tp *TriplePendulum) Params() []Param {
	return []Param{
		{Name: "phi1", Min: -1.5, Max: 1.5},
		{Name: "phi2", Min: -1.5, Max: 1.5},
		{Name: "phi3", Min: -1.5, Max: 1.5},
		{Name: "f", Min: 0.0, Max: 1.0},
	}
}

// StateDim implements System: the observed state is (θ₁, θ₂, θ₃).
func (tp *TriplePendulum) StateDim() int { return 3 }

// triplePendulumRHS is the right-hand side at one friction value over
// (θ₁,θ₂,θ₃,ω₁,ω₂,ω₃): c_ij = tail[max(i,j)] = Σ_{k ≥ max(i,j)} m_k (unit
// rods), and tailG[i] = tail[i]·g hoisted as the inline formula groups it.
type triplePendulumRHS struct {
	friction    float64
	tail, tailG [3]float64
}

// deriv implements ode.Derivative. The 3×3 mass-matrix solve is inlined
// (Gaussian elimination with partial pivoting on stack arrays) because it
// runs on every RK4 stage; routing it through the general mat.Solve would
// allocate four times per evaluation. math.Sincos returns exactly the
// (math.Sin, math.Cos) pair at every non-NaN argument — see
// doublePendulumRHS.deriv.
//
// Three calls give all nine (sin, cos)(θᵢ−θⱼ), bit for bit: one per i < j.
// For j < i, θᵢ−θⱼ is exactly −(θⱼ−θᵢ), and Sincos is odd in sin and even
// in cos, so the sine is 0 − sin: a plain −sin would turn Sincos(+0)'s +0
// into −0 and flip the sign of a NaN. On the diagonal θᵢ−θᵢ is +0, where
// Sincos is (+0, 1), or NaN, where it is (NaN(), NaN()).
func (r *triplePendulumRHS) deriv(t float64, y, dst []float64) {
	th := y[0:3]
	w := y[3:6]
	var sin, cos [3][3]float64
	for i := 0; i < 3; i++ {
		sin[i][i], cos[i][i] = 0, 1
		if th[i]-th[i] != 0 {
			sin[i][i], cos[i][i] = math.NaN(), math.NaN()
		}
		for j := i + 1; j < 3; j++ {
			sin[i][j], cos[i][j] = math.Sincos(th[i] - th[j])
			sin[j][i], cos[j][i] = 0-sin[i][j], cos[i][j]
		}
	}
	var a [3][4]float64 // augmented system [M | b]
	for i := 0; i < 3; i++ {
		var b float64
		for j := 0; j < 3; j++ {
			c := r.tail[max(i, j)]
			a[i][j] = c * cos[i][j]
			b -= c * sin[i][j] * w[j] * w[j]
		}
		b -= r.tailG[i] * math.Sin(th[i])
		b -= r.friction * w[i]
		a[i][3] = b
	}
	// Gaussian elimination with partial pivoting. The mass matrix of a
	// physical pendulum chain is positive definite, so pivots only
	// vanish after a numerical blow-up; in that case damp to zero
	// acceleration instead of propagating NaNs.
	for k := 0; k < 3; k++ {
		p := k
		for i := k + 1; i < 3; i++ {
			if math.Abs(a[i][k]) > math.Abs(a[p][k]) {
				p = i
			}
		}
		if a[p][k] == 0 {
			dst[0], dst[1], dst[2] = w[0], w[1], w[2]
			dst[3], dst[4], dst[5] = 0, 0, 0
			return
		}
		a[k], a[p] = a[p], a[k]
		inv := 1 / a[k][k]
		for i := k + 1; i < 3; i++ {
			f := a[i][k] * inv
			for j := k; j < 4; j++ {
				a[i][j] -= f * a[k][j]
			}
		}
	}
	acc2 := a[2][3] / a[2][2]
	acc1 := (a[1][3] - a[1][2]*acc2) / a[1][1]
	acc0 := (a[0][3] - a[0][1]*acc1 - a[0][2]*acc2) / a[0][0]
	dst[0], dst[1], dst[2] = w[0], w[1], w[2]
	dst[3], dst[4], dst[5] = acc0, acc1, acc2
}

// integrate runs the pendulum at vals = (φ₁, φ₂, φ₃, f) through w and
// visits the internal state at each of numSamples timestamps.
func (tp *TriplePendulum) integrate(w *ode.Workspace, vals []float64, numSamples, steps int, visit func(s int, y []float64)) {
	m := tp.Masses
	rhs := triplePendulumRHS{friction: vals[3], tail: [3]float64{m[0] + m[1] + m[2], m[1] + m[2], m[2]}}
	for i, c := range rhs.tail {
		rhs.tailG[i] = c * tp.G
	}
	y0 := [6]float64{vals[0], vals[1], vals[2]}
	w.Samples(rhs.deriv, 0, tp.Horizon, y0[:], numSamples, steps, visit)
}

// Trajectory implements System.
func (tp *TriplePendulum) Trajectory(vals []float64, numSamples int) [][]float64 {
	out := make([][]float64, numSamples)
	steps := stepsPerSample(tp.Name(), tp.Horizon, numSamples, tp.MaxStep)
	tp.integrate(new(ode.Workspace), vals, numSamples, steps, func(s int, y []float64) { out[s] = []float64{y[0], y[1], y[2]} })
	return out
}

// cells implements cellKernel.
func (tp *TriplePendulum) cells(w *ode.Workspace, vals []float64, ref [][]float64, dst []float64) {
	steps := stepsPerSample(tp.Name(), tp.Horizon, len(dst), tp.MaxStep)
	tp.integrate(w, vals, len(dst), steps, func(s int, y []float64) { dst[s] = Distance(y[:3], ref[s]) })
}
