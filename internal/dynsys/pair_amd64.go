package dynsys

import "repro/internal/ode"

// pairState is the packed kernel's working set. Every entry is a [2]float64
// holding lane 0 (simulation a) and lane 1 (simulation b); pair_amd64.s
// addresses the fields by byte offset, so their order is its layout.
type pairState struct {
	y   [4][2]float64 // the state θ₁, ω₁, θ₂, ω₂ (offset 0)
	rhs [7][2]float64 // l, m2, gM, m2g, mSum, gSum, mDen of doublePendulumRHS (64)
	h   [3][2]float64 // h, h/2, h/6 (176)
	t   [4][2]float64 // the RK4 stage argument (224)
	acc [4][2]float64 // k1 + 2·k2 + 2·k3 + k4, as far as the step got (288)
}

// pairSteps advances both lanes of k.y by steps RK4 steps, each lane with
// exactly the operations DoublePendulum.cells performs, math.Sincos's
// included. It returns a two-bit mask: bit i is set when every
// trigonometric argument of lane i and its final θ₁, θ₂ stayed finite and
// below 2²⁹ in magnitude — the range where Sincos needs neither trigReduce
// nor a special case. A lane with its bit clear holds garbage.
//
//go:noescape
func pairSteps(k *pairState, steps int) (inDomain int)

// cellsPair integrates a and b in lockstep through pairSteps and takes each
// lane's distance to ref at every sample. If either lane leaves the packed
// domain, the pair reruns on the scalar kernel, which stays the oracle.
func (dp *DoublePendulum) cellsPair(w *ode.Workspace, a, b []float64, ref [][]float64, dstA, dstB []float64) {
	steps := stepsPerSample(dp.Name(), dp.Horizon, len(dstA), dp.MaxStep)
	var k pairState
	for lane, vals := range [2][]float64{a, b} {
		r := dp.rhs(vals)
		for i, v := range [7]float64{r.l, r.m2, r.gM, r.m2g, r.mSum, r.gSum, r.mDen} {
			k.rhs[i][lane] = v
		}
		k.y[0][lane], k.y[2][lane] = vals[0], vals[1]
	}
	// ode.Workspace.Samples's step size, and ode's h/2 and h/6.
	h := dp.Horizon / float64(len(dstA)) / float64(steps)
	k.h = [3][2]float64{{h, h}, {h / 2, h / 2}, {h / 6, h / 6}}
	for s := range dstA {
		if pairSteps(&k, steps) != 3 {
			dp.cells(w, a, ref, dstA)
			dp.cells(w, b, ref, dstB)
			return
		}
		dstA[s] = Distance([]float64{k.y[0][0], k.y[2][0]}, ref[s])
		dstB[s] = Distance([]float64{k.y[0][1], k.y[2][1]}, ref[s])
	}
}
