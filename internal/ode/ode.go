// Package ode provides ordinary-differential-equation integrators used by
// the dynamical-system simulators: the fixed-step classical Runge–Kutta
// (RK4) method.
//
// Systems are expressed as a derivative function dy = f(t, y) writing into
// a caller-provided slice, which keeps the hot integration loops
// allocation-free.
package ode

import "fmt"

// Derivative computes dy/dt at time t for state y, writing the result into
// dst. Implementations must not retain y or dst.
type Derivative func(t float64, y, dst []float64)

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
