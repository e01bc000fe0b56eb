// Package dynsys implements the dynamical systems the paper simulates —
// the double pendulum, the triple pendulum with friction, and the Lorenz
// system from its evaluation, plus the SEIR epidemic model its
// introduction motivates — behind a common System interface.
//
// Each system exposes exactly four variable simulation parameters
// (Section VII-A) and produces a multivariate time series by RK4
// integration. Ensemble tensor cells store, per Section VII-B, the
// Euclidean distance between a simulated trajectory's state and a
// designated reference ("observed") trajectory's state at each timestamp.
package dynsys

import (
	"fmt"
	"math"

	"repro/internal/ode"
)

// Param describes one simulation parameter and its value range.
type Param struct {
	Name string
	Min  float64
	Max  float64
}

// Value returns the parameter value at grid position i of a grid with the
// given resolution (linearly spaced over [Min, Max], inclusive).
func (p Param) Value(i, resolution int) float64 {
	if resolution <= 1 {
		return (p.Min + p.Max) / 2
	}
	return p.Min + (p.Max-p.Min)*float64(i)/float64(resolution-1)
}

// System is a simulatable dynamic process with a fixed set of variable
// input parameters.
type System interface {
	// Name identifies the system ("double-pendulum", …).
	Name() string
	// Params returns the variable simulation parameters, in mode order.
	Params() []Param
	// StateDim is the dimensionality of the observed state vector.
	StateDim() int
	// Trajectory simulates the system for the given parameter values and
	// returns the observed state at numSamples evenly spaced timestamps.
	Trajectory(vals []float64, numSamples int) [][]float64
}

// Distance returns the Euclidean distance between two state vectors.
func Distance(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("dynsys: state dims differ: %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Reference produces the "observed system" trajectory for a system: the
// simulation at the designated reference parameter values. Ensemble cells
// measure distance to this trajectory.
func Reference(sys System, numSamples int) [][]float64 {
	return sys.Trajectory(ReferenceParams(sys), numSamples)
}

// ReferenceParams returns the reference parameter setting: 40% of the way
// through each parameter range. Deliberately off the grid midpoint so the
// reference does not coincide with the fixing constants used by
// PF-partitioning.
func ReferenceParams(sys System) []float64 {
	ps := sys.Params()
	vals := make([]float64, len(ps))
	for i, p := range ps {
		vals[i] = p.Min + 0.4*(p.Max-p.Min)
	}
	return vals
}

// cellKernel is the built-in systems' allocation-free simulation kernel:
// integrate at vals through the caller's workspace and write the distance
// to ref at each of the len(dst) timestamps into dst.
type cellKernel interface {
	cells(w *ode.Workspace, vals []float64, ref [][]float64, dst []float64)
}

// Cells runs one simulation and writes its tensor cell values into dst:
// the Euclidean distance between the simulated and the reference state at
// each timestamp. ref must come from Reference(sys, len(dst)); w is the
// calling goroutine's workspace. Built-in systems run their kernel and
// allocate nothing; any other System is simulated through Trajectory.
func Cells(w *ode.Workspace, sys System, vals []float64, ref [][]float64, dst []float64) {
	if k, ok := sys.(cellKernel); ok {
		k.cells(w, vals, ref, dst)
		return
	}
	distances(sys.Trajectory(vals, len(ref)), ref, dst)
}

// CellsLanes runs n = len(dst)/len(ref) simulations, 1 ≤ n ≤ Lanes: the
// i-th at the parameter values vals[i·p:(i+1)·p], p = len(vals)/n, into
// dst[i·T:(i+1)·T], T = len(ref) — bit for bit what Cells writes for each.
// On an amd64 CPU with AVX2 the double pendulum advances all n in lockstep
// on the four-lane packed kernel (lanes_amd64.s); for any other system,
// architecture or CPU it is n Cells calls.
func CellsLanes(w *ode.Workspace, sys System, vals []float64, ref [][]float64, dst []float64) {
	t, n := len(ref), 0
	if t > 0 {
		n = len(dst) / t
	}
	if n < 1 || n > Lanes || n*t != len(dst) || len(vals)%n != 0 {
		panic(fmt.Sprintf("dynsys: CellsLanes got %d parameter values and %d cells for %d timestamps", len(vals), len(dst), t))
	}
	if dp, ok := sys.(*DoublePendulum); ok && avx2 {
		dp.cellsLanes(w, vals, ref, dst)
		return
	}
	p := len(vals) / n
	for i := range n {
		Cells(w, sys, vals[i*p:(i+1)*p], ref, dst[i*t:(i+1)*t])
	}
}

// distances writes the per-timestamp distance between traj and ref into dst.
func distances(traj, ref [][]float64, dst []float64) {
	for t := range dst {
		dst[t] = Distance(traj[t], ref[t])
	}
}

// ByName returns the named system with default physical constants.
// Recognised names: "double-pendulum", "triple-pendulum", "lorenz",
// "seir".
func ByName(name string) (System, error) {
	switch name {
	case "double-pendulum":
		return NewDoublePendulum(), nil
	case "triple-pendulum":
		return NewTriplePendulum(), nil
	case "lorenz":
		return NewLorenz(), nil
	case "seir":
		return NewSEIR(), nil
	default:
		return nil, fmt.Errorf("dynsys: unknown system %q", name)
	}
}

// All returns every built-in system: the three the paper evaluates, in
// its order, plus the SEIR epidemic model its introduction motivates.
func All() []System {
	return []System{NewDoublePendulum(), NewTriplePendulum(), NewLorenz(), NewSEIR()}
}

// stepsPerSample returns the number of fixed RK4 sub-steps needed so that
// no step exceeds maxStep, given the interval between output samples.
// Integration accuracy must not depend on how coarsely the time mode is
// sampled, so integrators derive their step count from a maximum step
// size rather than from the sample count. A maxStep that is not positive
// (zero, negative, NaN — a system literal that forgot MaxStep) has no step
// count; it panics with the system's name, as ode.Samples does on counts.
func stepsPerSample(name string, horizon float64, numSamples int, maxStep float64) int {
	if !(maxStep > 0) {
		panic(fmt.Sprintf("dynsys: %s: MaxStep must be positive, got %v", name, maxStep))
	}
	dt := horizon / float64(numSamples)
	n := int(math.Ceil(dt / maxStep))
	if n < 1 {
		n = 1
	}
	return n
}
