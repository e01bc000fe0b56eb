package dynsys

import (
	"math"

	"repro/internal/ode"
)

// Physical invariants the equation-of-motion tests check: total mechanical
// energy, and the full internal state (angles and angular velocities) the
// cell kernels reduce to a distance before anything else sees it.

// Energy returns the total mechanical energy for a full internal state
// (θ₁, ω₁, θ₂, ω₂), conserved in the frictionless system.
func (dp *DoublePendulum) Energy(y []float64, m1, m2 float64) float64 {
	th1, w1, th2, w2 := y[0], y[1], y[2], y[3]
	l, g := dp.L, dp.G
	v1sq := l * l * w1 * w1
	v2sq := l*l*w1*w1 + l*l*w2*w2 + 2*l*l*w1*w2*math.Cos(th1-th2)
	ke := 0.5*m1*v1sq + 0.5*m2*v2sq
	y1 := -l * math.Cos(th1)
	y2 := y1 - l*math.Cos(th2)
	pe := m1*g*y1 + m2*g*y2
	return ke + pe
}

// FullState integrates the pendulum and returns the complete internal
// state (θ₁, ω₁, θ₂, ω₂) at the end of the horizon.
func (dp *DoublePendulum) FullState(vals []float64, steps int) (out []float64) {
	dp.integrate(new(ode.Workspace), vals, 1, steps, func(_ int, y []float64) { out = append(out, y...) })
	return out
}

// Energy returns the total mechanical energy for a full internal state
// (θ₁,θ₂,θ₃,ω₁,ω₂,ω₃); conserved when friction is zero.
func (tp *TriplePendulum) Energy(y []float64) float64 {
	th := y[0:3]
	w := y[3:6]
	m := tp.Masses
	g := tp.G
	// Bob velocities: v_k = Σ_{i ≤ k} rod_i angular velocity vectors.
	var ke, pe float64
	for k := 0; k < 3; k++ {
		var vx, vy, height float64
		for i := 0; i <= k; i++ {
			vx += w[i] * math.Cos(th[i])
			vy += w[i] * math.Sin(th[i])
			height -= math.Cos(th[i])
		}
		ke += 0.5 * m[k] * (vx*vx + vy*vy)
		pe += m[k] * g * height
	}
	return ke + pe
}

// FullState integrates and returns the complete internal state
// (θ₁,θ₂,θ₃,ω₁,ω₂,ω₃) at the end of the horizon.
func (tp *TriplePendulum) FullState(vals []float64, steps int) (out []float64) {
	tp.integrate(new(ode.Workspace), vals, 1, steps, func(_ int, y []float64) { out = append(out, y...) })
	return out
}
