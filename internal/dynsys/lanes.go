package dynsys

import "repro/internal/ode"

// Lanes is the most simulations CellsLanes runs at once: the packed
// kernel's width, four float64 lanes of a 256-bit register.
const Lanes = 4

// avx2 gates the packed kernel. It is probed once; where it is false — an
// amd64 CPU without AVX2, or another architecture — CellsLanes runs the
// scalar kernel, which stays the oracle either way, per lane. A test sets
// it false to take that route on any CPU.
var avx2 = hasAVX2()

// laneState is the packed kernel's working set. Every entry holds lane i
// in [i]; lanes_amd64.s addresses the fields by byte offset, so their order
// is its layout.
type laneState struct {
	y   [4][Lanes]float64 // the state θ₁, ω₁, θ₂, ω₂ (offset 0)
	rhs [7][Lanes]float64 // l, m2, gM, m2g, mSum, gSum, mDen of doublePendulumRHS (128)
	h   [3][Lanes]float64 // h, h/2, h/6 (352)
	t   [4][Lanes]float64 // the RK4 stage argument (448)
	acc [4][Lanes]float64 // k1 + 2·k2 + 2·k3 + k4, as far as the step got (576)
}

// cellsLanes integrates the n = len(dst)/len(ref) parameter points of vals
// in lockstep through laneSteps and takes each lane's distance to ref at
// every sample. Lanes beyond n repeat the first point; their output is
// discarded. If any lane leaves the packed domain, all n rerun on the
// scalar kernel.
func (dp *DoublePendulum) cellsLanes(w *ode.Workspace, vals []float64, ref [][]float64, dst []float64) {
	t := len(ref)
	n := len(dst) / t
	p := len(vals) / n
	steps := stepsPerSample(dp.Name(), dp.Horizon, t, dp.MaxStep)
	// ode.Workspace.Samples's step size, and ode's h/2 and h/6.
	h := dp.Horizon / float64(t) / float64(steps)
	var k laneState
	for lane := range Lanes {
		v := vals[:p]
		if lane < n {
			v = vals[lane*p : (lane+1)*p]
		}
		r := dp.rhs(v)
		for i, x := range [7]float64{r.l, r.m2, r.gM, r.m2g, r.mSum, r.gSum, r.mDen} {
			k.rhs[i][lane] = x
		}
		k.y[0][lane], k.y[2][lane] = v[0], v[1]
		k.h[0][lane], k.h[1][lane], k.h[2][lane] = h, h/2, h/6
	}
	for s := range t {
		if laneSteps(&k, steps) != 1<<Lanes-1 {
			for i := range n {
				dp.cells(w, vals[i*p:(i+1)*p], ref, dst[i*t:(i+1)*t])
			}
			return
		}
		for i := range n {
			dst[i*t+s] = Distance([]float64{k.y[0][i], k.y[2][i]}, ref[s])
		}
	}
}
