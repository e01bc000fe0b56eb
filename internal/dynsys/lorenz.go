package dynsys

import "repro/internal/ode"

// Lorenz is the Lorenz system of Section VII-A, notable for chaotic
// solutions at certain parameter settings. Its four variable simulation
// parameters are the initial z coordinate z₀ and the system parameters
// σ, β, ρ; the initial x and y coordinates are physical constants. The
// observed state is the full position (x, y, z).
//
//	x' = σ(y − x)
//	y' = x(ρ − z) − y
//	z' = xy − βz
type Lorenz struct {
	// X0, Y0 are the fixed initial x and y coordinates.
	X0, Y0 float64
	// Horizon is the simulated time span.
	Horizon float64
	// MaxStep caps the RK4 step size; the per-sample step count is derived
	// from it so integration accuracy does not depend on the time-mode
	// resolution.
	MaxStep float64
}

// NewLorenz returns a Lorenz system starting at (1, 1, z₀) over a
// 2-second horizon (long enough for trajectories to separate, short
// enough that chaotic divergence does not saturate every distance).
func NewLorenz() *Lorenz {
	return &Lorenz{X0: 1, Y0: 1, Horizon: 2, MaxStep: 0.005}
}

// Name implements System.
func (lz *Lorenz) Name() string { return "lorenz" }

// Params implements System. Ranges straddle the classic chaotic setting
// (σ=10, β=8/3, ρ=28).
func (lz *Lorenz) Params() []Param {
	return []Param{
		{Name: "z0", Min: 0.5, Max: 1.5},
		{Name: "sigma", Min: 8, Max: 12},
		{Name: "beta", Min: 2, Max: 3.5},
		{Name: "rho", Min: 20, Max: 35},
	}
}

// StateDim implements System: the observed state is (x, y, z).
func (lz *Lorenz) StateDim() int { return 3 }

// lorenzRHS is the right-hand side at one (σ, β, ρ) setting.
type lorenzRHS struct{ sigma, beta, rho float64 }

func (r *lorenzRHS) deriv(t float64, y, dst []float64) {
	dst[0] = r.sigma * (y[1] - y[0])
	dst[1] = y[0]*(r.rho-y[2]) - y[1]
	dst[2] = y[0]*y[1] - r.beta*y[2]
}

// integrate runs the system at vals = (z₀, σ, β, ρ) through w and visits
// the state at each of numSamples timestamps.
func (lz *Lorenz) integrate(w *ode.Workspace, vals []float64, numSamples int, visit func(s int, y []float64)) {
	rhs := lorenzRHS{sigma: vals[1], beta: vals[2], rho: vals[3]}
	y0 := [3]float64{lz.X0, lz.Y0, vals[0]}
	w.Samples(rhs.deriv, 0, lz.Horizon, y0[:], numSamples, stepsPerSample(lz.Name(), lz.Horizon, numSamples, lz.MaxStep), visit)
}

// Trajectory implements System.
func (lz *Lorenz) Trajectory(vals []float64, numSamples int) [][]float64 {
	out := make([][]float64, numSamples)
	lz.integrate(new(ode.Workspace), vals, numSamples, func(s int, y []float64) { out[s] = append([]float64(nil), y...) })
	return out
}

// cells implements cellKernel.
func (lz *Lorenz) cells(w *ode.Workspace, vals []float64, ref [][]float64, dst []float64) {
	lz.integrate(w, vals, len(dst), func(s int, y []float64) { dst[s] = Distance(y, ref[s]) })
}
