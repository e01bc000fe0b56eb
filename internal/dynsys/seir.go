package dynsys

import "repro/internal/ode"

// SEIR is a compartmental epidemic model (susceptible → exposed →
// infectious → recovered), the kind of process the paper's introduction
// motivates with STEM-based epidemic-spread simulation and intervention
// assessment. Its four variable simulation parameters are the
// transmission rate β, the incubation rate σ, the recovery rate γ, and
// the initial infectious fraction i₀. The observed state is the
// compartment distribution (s, e, i, r).
//
//	s' = −β·s·i
//	e' = β·s·i − σ·e
//	i' = σ·e − γ·i
//	r' = γ·i
type SEIR struct {
	// Horizon is the simulated time span in days.
	Horizon float64
	// MaxStep caps the RK4 step size.
	MaxStep float64
}

// NewSEIR returns an SEIR model over a 60-day horizon.
func NewSEIR() *SEIR {
	return &SEIR{Horizon: 60, MaxStep: 0.25}
}

// Name implements System.
func (sr *SEIR) Name() string { return "seir" }

// Params implements System. Ranges straddle R₀ = β/γ crossing 1, so the
// ensemble spans both dying-out and epidemic regimes.
func (sr *SEIR) Params() []Param {
	return []Param{
		{Name: "beta", Min: 0.1, Max: 0.6},
		{Name: "sigma", Min: 0.1, Max: 0.5},
		{Name: "gamma", Min: 0.05, Max: 0.3},
		{Name: "i0", Min: 0.001, Max: 0.05},
	}
}

// StateDim implements System: the observed state is (s, e, i, r).
func (sr *SEIR) StateDim() int { return 4 }

// seirRHS is the right-hand side at one (β, σ, γ) setting.
type seirRHS struct{ beta, sigma, gamma float64 }

func (r *seirRHS) deriv(t float64, y, dst []float64) {
	s, e, i := y[0], y[1], y[2]
	inf := r.beta * s * i
	dst[0] = -inf
	dst[1] = inf - r.sigma*e
	dst[2] = r.sigma*e - r.gamma*i
	dst[3] = r.gamma * i
}

// integrate runs the model at vals = (β, σ, γ, i₀) through w and visits
// the state at each of numSamples timestamps.
func (sr *SEIR) integrate(w *ode.Workspace, vals []float64, numSamples int, visit func(s int, y []float64)) {
	rhs := seirRHS{beta: vals[0], sigma: vals[1], gamma: vals[2]}
	y0 := [4]float64{1 - vals[3], 0, vals[3], 0}
	w.Samples(rhs.deriv, 0, sr.Horizon, y0[:], numSamples, stepsPerSample(sr.Name(), sr.Horizon, numSamples, sr.MaxStep), visit)
}

// Trajectory implements System.
func (sr *SEIR) Trajectory(vals []float64, numSamples int) [][]float64 {
	out := make([][]float64, numSamples)
	sr.integrate(new(ode.Workspace), vals, numSamples, func(s int, y []float64) { out[s] = append([]float64(nil), y...) })
	return out
}

// cells implements cellKernel.
func (sr *SEIR) cells(w *ode.Workspace, vals []float64, ref [][]float64, dst []float64) {
	sr.integrate(w, vals, len(dst), func(s int, y []float64) { dst[s] = Distance(y, ref[s]) })
}
