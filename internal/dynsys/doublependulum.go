package dynsys

import (
	"math"

	"repro/internal/ode"
)

// DoublePendulum is the equal-length double pendulum of Figure 2. Its four
// variable simulation parameters (Section VII-A) are the initial angles
// φ₁, φ₂ and the bob weights m₁, m₂; rod lengths and gravity are physical
// constants. The observed state is the two pendulum angles (θ₁, θ₂).
type DoublePendulum struct {
	// L is the common rod length; G the gravitational acceleration.
	L, G float64
	// Horizon is the simulated time span in seconds.
	Horizon float64
	// MaxStep caps the RK4 step size; the per-sample step count is derived
	// from it so integration accuracy does not depend on the time-mode
	// resolution.
	MaxStep float64
}

// NewDoublePendulum returns a double pendulum with unit rods, Earth
// gravity, and a 5-second horizon.
func NewDoublePendulum() *DoublePendulum {
	return &DoublePendulum{L: 1, G: 9.81, Horizon: 5, MaxStep: 0.01}
}

// Name implements System.
func (dp *DoublePendulum) Name() string { return "double-pendulum" }

// Params implements System. Angles span most of the upper half-plane;
// masses span a factor of ~5.
func (dp *DoublePendulum) Params() []Param {
	return []Param{
		{Name: "phi1", Min: -2.0, Max: 2.0},
		{Name: "phi2", Min: -2.0, Max: 2.0},
		{Name: "m1", Min: 0.5, Max: 2.5},
		{Name: "m2", Min: 0.5, Max: 2.5},
	}
}

// StateDim implements System: the observed state is (θ₁, θ₂).
func (dp *DoublePendulum) StateDim() int { return 2 }

// doublePendulumRHS is the right-hand side at one parameter point: the
// standard equal-length equations of motion over (θ₁, ω₁, θ₂, ω₂). The
// parameter-only sub-expressions are evaluated once, grouped exactly as
// the inline formula's left-to-right evaluation groups them, so every
// derivative keeps the unhoisted formula's value to the last bit.
type doublePendulumRHS struct{ l, m2, gM, m2g, mSum, gSum, mDen float64 }

// deriv implements ode.Derivative. It makes two trigonometric calls, on
// Δ = θ₁−θ₂ and on θ₁; the equations' other two values come from them:
// cos 2Δ = 1 − 2 sin²Δ and sin(θ₁−2θ₂) = sin(2Δ−θ₁) = sin 2Δ cos θ₁ −
// cos 2Δ sin θ₁. The closure reference in parity_test.go and the lanes
// kernel evaluate these terms in this order. math.Sincos returns exactly
// the (math.Sin, math.Cos) pair at every non-NaN argument —
// TestSincosMatchesSinCos pins it.
func (r *doublePendulumRHS) deriv(t float64, y, dst []float64) {
	th1, w1, th2, w2 := y[0], y[1], y[2], y[3]
	l, m2 := r.l, r.m2
	sinD, cosD := math.Sincos(th1 - th2)
	sin1, cos1 := math.Sincos(th1)
	cos2D := 1 - 2*sinD*sinD
	sin12 := 2*sinD*cosD*cos1 - cos2D*sin1
	den := r.mDen - m2*cos2D
	dst[0] = w1
	dst[1] = (r.gM*sin1 -
		r.m2g*sin12 -
		2*sinD*m2*(w2*w2*l+w1*w1*l*cosD)) / (l * den)
	dst[2] = w2
	dst[3] = (2 * sinD * (w1*w1*l*r.mSum +
		r.gSum*cos1 +
		w2*w2*l*m2*cosD)) / (l * den)
}

// rhs returns the right-hand-side value at vals = (φ₁, φ₂, m₁, m₂): the
// scalar and the packed kernel hoist through this one function.
func (dp *DoublePendulum) rhs(vals []float64) doublePendulumRHS {
	m1, m2, g := vals[2], vals[3], dp.G
	return doublePendulumRHS{l: dp.L, m2: m2, gM: -g * (2*m1 + m2), m2g: m2 * g, mSum: m1 + m2, gSum: g * (m1 + m2), mDen: 2*m1 + m2}
}

// integrate runs the pendulum at vals = (φ₁, φ₂, m₁, m₂) through w and
// visits the internal state at each of numSamples timestamps.
func (dp *DoublePendulum) integrate(w *ode.Workspace, vals []float64, numSamples, steps int, visit func(s int, y []float64)) {
	rhs := dp.rhs(vals)
	y0 := [4]float64{vals[0], 0, vals[1], 0}
	w.Samples(rhs.deriv, 0, dp.Horizon, y0[:], numSamples, steps, visit)
}

// Trajectory implements System.
func (dp *DoublePendulum) Trajectory(vals []float64, numSamples int) [][]float64 {
	out := make([][]float64, numSamples)
	steps := stepsPerSample(dp.Name(), dp.Horizon, numSamples, dp.MaxStep)
	dp.integrate(new(ode.Workspace), vals, numSamples, steps, func(s int, y []float64) { out[s] = []float64{y[0], y[2]} })
	return out
}

// cells implements cellKernel.
func (dp *DoublePendulum) cells(w *ode.Workspace, vals []float64, ref [][]float64, dst []float64) {
	steps := stepsPerSample(dp.Name(), dp.Horizon, len(dst), dp.MaxStep)
	dp.integrate(w, vals, len(dst), steps, func(s int, y []float64) { dst[s] = Distance([]float64{y[0], y[2]}, ref[s]) })
}
