// Package ode provides ordinary-differential-equation integrators used by
// the dynamical-system simulators: a fixed-step classical Runge–Kutta
// (RK4) method and an adaptive Dormand–Prince RK45 method.
//
// Systems are expressed as a derivative function dy = f(t, y) writing into
// a caller-provided slice, which keeps the hot integration loops
// allocation-free.
package ode

import (
	"errors"
	"fmt"
	"math"
)

// Derivative computes dy/dt at time t for state y, writing the result into
// dst. Implementations must not retain y or dst.
type Derivative func(t float64, y, dst []float64)

// ErrStepUnderflow is returned by the adaptive integrator when the error
// controller drives the step size below the representable minimum,
// usually a sign the system is too stiff for an explicit method.
var ErrStepUnderflow = errors.New("ode: adaptive step size underflow")

// Workspace is the scratch of the fixed-step integrator: one slab holding
// the running state, an RK4 step's four stage slopes and its stage
// argument. Its caller owns it — one per goroutine, reused across
// integrations so a campaign integrates without allocating; zero is ready.
type Workspace struct{ buf []float64 }

// Samples is the one RK4 stepping loop: it integrates y' = f(t, y) from
// (t0, y0) to t1 and calls visit with the state at each of numSamples
// evenly spaced timestamps spanning (t0, t1], taking stepsPerSample RK4
// steps between consecutive samples. The state handed to visit aliases
// the workspace and is valid only during the call; y0 is left alone.
func (w *Workspace) Samples(f Derivative, t0, t1 float64, y0 []float64, numSamples, stepsPerSample int, visit func(s int, y []float64)) {
	if numSamples <= 0 || stepsPerSample <= 0 {
		panic(fmt.Sprintf("ode: integration requires positive sample and step counts, got %d, %d", numSamples, stepsPerSample))
	}
	dim := len(y0)
	if cap(w.buf) < 6*dim {
		w.buf = make([]float64, 6*dim)
	}
	w.buf = w.buf[:6*dim]
	copy(w.buf, y0)
	dt := (t1 - t0) / float64(numSamples)
	h := dt / float64(stepsPerSample)
	for s := 0; s < numSamples; s++ {
		base := t0 + float64(s)*dt
		for q := 0; q < stepsPerSample; q++ {
			w.step(f, base+float64(q)*h, h)
		}
		visit(s, w.buf[:dim])
	}
}

// step advances the state in place by one RK4 step of size h: h/2 and h/6
// once per step, each element the textbook formulas' operations in order.
func (w *Workspace) step(f Derivative, t, h float64) {
	n := len(w.buf) / 6
	y, k1, k2, k3, k4, tmp := w.buf[:n], w.buf[n:2*n], w.buf[2*n:3*n], w.buf[3*n:4*n], w.buf[4*n:5*n], w.buf[5*n:6*n]
	half, sixth := h/2, h/6
	f(t, y, k1)
	for i := range y {
		tmp[i] = y[i] + half*k1[i]
	}
	f(t+half, tmp, k2)
	for i := range y {
		tmp[i] = y[i] + half*k2[i]
	}
	f(t+half, tmp, k3)
	for i := range y {
		tmp[i] = y[i] + h*k3[i]
	}
	f(t+h, tmp, k4)
	for i := range y {
		y[i] += sixth * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
	}
}

// RK4 integrates y' = f(t, y) from (t0, y0) to t1 using n fixed steps of
// the classical 4th-order Runge–Kutta method and returns the final state:
// the single sample of an n-step Samples run.
func RK4(f Derivative, t0, t1 float64, y0 []float64, n int) []float64 {
	return Trajectory(f, t0, t1, y0, 1, n)[0]
}

// Trajectory integrates with RK4 and records the state at numSamples
// evenly spaced timestamps spanning (t0, t1], taking stepsPerSample RK4
// steps between consecutive samples. The returned slice has numSamples
// rows, each a copy of the state.
func Trajectory(f Derivative, t0, t1 float64, y0 []float64, numSamples, stepsPerSample int) [][]float64 {
	out := make([][]float64, max(numSamples, 0))
	new(Workspace).Samples(f, t0, t1, y0, numSamples, stepsPerSample, func(s int, y []float64) {
		out[s] = append([]float64(nil), y...)
	})
	return out
}

// Dormand–Prince RK5(4) coefficients.
var (
	dpC = [7]float64{0, 1.0 / 5, 3.0 / 10, 4.0 / 5, 8.0 / 9, 1, 1}
	dpA = [7][6]float64{
		{},
		{1.0 / 5},
		{3.0 / 40, 9.0 / 40},
		{44.0 / 45, -56.0 / 15, 32.0 / 9},
		{19372.0 / 6561, -25360.0 / 2187, 64448.0 / 6561, -212.0 / 729},
		{9017.0 / 3168, -355.0 / 33, 46732.0 / 5247, 49.0 / 176, -5103.0 / 18656},
		{35.0 / 384, 0, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84},
	}
	// 5th-order solution weights (same as the last A row) and the
	// embedded 4th-order weights for error estimation.
	dpB5 = [7]float64{35.0 / 384, 0, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84, 0}
	dpB4 = [7]float64{5179.0 / 57600, 0, 7571.0 / 16695, 393.0 / 640, -92097.0 / 339200, 187.0 / 2100, 1.0 / 40}
)

// RK45 integrates y' = f(t, y) from (t0, y0) to t1 with adaptive
// Dormand–Prince steps, holding the per-step mixed error below tol.
// It returns the final state.
func RK45(f Derivative, t0, t1 float64, y0 []float64, tol float64) ([]float64, error) {
	if tol <= 0 {
		panic(fmt.Sprintf("ode: RK45 requires positive tolerance, got %g", tol))
	}
	dim := len(y0)
	y := append([]float64(nil), y0...)
	var k [7][]float64
	for i := range k {
		k[i] = make([]float64, dim)
	}
	tmp := make([]float64, dim)
	y5 := make([]float64, dim)

	t := t0
	span := t1 - t0
	if span == 0 {
		return y, nil
	}
	h := span / 100 // initial guess; the controller adapts immediately
	dir := math.Copysign(1, span)
	h = math.Copysign(math.Abs(h), dir)
	const maxSteps = 10_000_000
	for step := 0; step < maxSteps; step++ {
		if (dir > 0 && t >= t1) || (dir < 0 && t <= t1) {
			return y, nil
		}
		if (dir > 0 && t+h > t1) || (dir < 0 && t+h < t1) {
			h = t1 - t
		}
		// Evaluate the seven stages.
		f(t, y, k[0])
		for s := 1; s < 7; s++ {
			for i := 0; i < dim; i++ {
				acc := y[i]
				for j := 0; j < s; j++ {
					acc += h * dpA[s][j] * k[j][i]
				}
				tmp[i] = acc
			}
			f(t+dpC[s]*h, tmp, k[s])
		}
		// 5th-order solution and embedded error estimate.
		var errNorm float64
		for i := 0; i < dim; i++ {
			var v5, v4 float64
			for s := 0; s < 7; s++ {
				v5 += dpB5[s] * k[s][i]
				v4 += dpB4[s] * k[s][i]
			}
			y5[i] = y[i] + h*v5
			scale := tol * (1 + math.Max(math.Abs(y[i]), math.Abs(y5[i])))
			e := h * (v5 - v4) / scale
			errNorm += e * e
		}
		errNorm = math.Sqrt(errNorm / float64(dim))
		if errNorm <= 1 {
			t += h
			copy(y, y5)
		}
		// PI-free classic step-size update with safety factor.
		factor := 0.9 * math.Pow(math.Max(errNorm, 1e-10), -0.2)
		factor = math.Min(5, math.Max(0.2, factor))
		h *= factor
		if math.Abs(h) < 1e-14*math.Max(math.Abs(t), 1) {
			return nil, ErrStepUnderflow
		}
	}
	return nil, fmt.Errorf("ode: RK45 exceeded %d steps", maxSteps)
}
