// Package ensemble models simulation parameter spaces and ensemble
// construction. It maps a dynamical system onto the paper's 5-mode tensor
// view — four simulation-parameter modes plus a time mode (Section VII-B) —
// and provides the conventional ensemble sampling schemes (Random, Grid,
// Slice of Section IV) that M2TD is evaluated against, as well as the
// exhaustive ground-truth tensor used by the accuracy metric.
package ensemble

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/dynsys"
	"repro/internal/ode"
	"repro/internal/tensor"
)

// Space is a discretised simulation parameter space for one dynamical
// system: every simulation parameter gets Res grid values and time is
// sampled at TimeSamples stamps, yielding the tensor shape
// (Res, …, Res, TimeSamples) with the time mode last.
type Space struct {
	Sys dynsys.System
	// Res is the per-parameter grid resolution (the paper's 60–80).
	Res int
	// TimeSamples is the size of the time mode.
	TimeSamples int

	// params is Sys.Params(), resolved once: the interface method builds
	// a fresh slice per call and the simulation path asks per simulation.
	params []dynsys.Param

	refOnce sync.Once
	ref     [][]float64

	truthOnce sync.Once
	truth     *tensor.Dense
}

// NewSpace returns a Space over the given system.
func NewSpace(sys dynsys.System, res, timeSamples int) *Space {
	if res < 1 || timeSamples < 1 {
		panic(fmt.Sprintf("ensemble: invalid space %d×%d", res, timeSamples))
	}
	return &Space{Sys: sys, Res: res, TimeSamples: timeSamples, params: sys.Params()}
}

// NumParams returns the number of simulation-parameter modes.
func (s *Space) NumParams() int { return len(s.params) }

// Order returns the tensor order: parameters plus the time mode.
func (s *Space) Order() int { return s.NumParams() + 1 }

// TimeMode returns the index of the time mode (always last).
func (s *Space) TimeMode() int { return s.NumParams() }

// Shape returns the full ensemble tensor shape.
func (s *Space) Shape() tensor.Shape {
	sh := make(tensor.Shape, s.Order())
	for i := 0; i < s.NumParams(); i++ {
		sh[i] = s.Res
	}
	sh[s.TimeMode()] = s.TimeSamples
	return sh
}

// SimIndex decodes a simulation's C-order linear index (in [0, TotalSims))
// into its parameter grid indices idx (len NumParams).
func (s *Space) SimIndex(sim int, idx []int) {
	for k := len(idx) - 1; k >= 0; k-- {
		idx[k] = sim % s.Res
		sim /= s.Res
	}
}

// TotalSims returns the number of distinct simulations (parameter
// combinations, Res^N) in the full space.
func (s *Space) TotalSims() int {
	n := 1
	for i := 0; i < s.NumParams(); i++ {
		n *= s.Res
	}
	return n
}

// TimeName names every space's last mode, time.
const TimeName = "t"

// ModeName returns a human-readable name for a tensor mode: its
// parameter's name, or TimeName.
func (s *Space) ModeName(mode int) string {
	if mode == s.TimeMode() {
		return TimeName
	}
	return s.params[mode].Name
}

// paramValues converts one simulation's parameter grid indices to physical
// values, into the workspace's value buffer.
func (s *Space) paramValues(w *Workspace, idx []int) []float64 {
	if len(idx) != len(s.params) {
		panic(fmt.Sprintf("ensemble: paramValues got %d indices for %d params", len(idx), len(s.params)))
	}
	vals := w.values(len(idx))
	for i, p := range s.params {
		vals[i] = p.Value(idx[i], s.Res)
	}
	return vals
}

// keyValues converts the simulations at keys (C-order linear indices of
// the parameter grid, see SimIndex) to physical values, one simulation
// after another, into the workspace's value buffer.
func (s *Space) keyValues(w *Workspace, keys []int) []float64 {
	np := len(s.params)
	vals := w.values(len(keys) * np)
	for j, key := range keys {
		for k := np - 1; k >= 0; k-- {
			vals[j*np+k] = s.params[k].Value(key%s.Res, s.Res)
			key /= s.Res
		}
	}
	return vals
}

// Reference returns the cached reference ("observed") trajectory.
func (s *Space) Reference() [][]float64 {
	s.refOnce.Do(func() {
		s.ref = dynsys.Reference(s.Sys, s.TimeSamples)
	})
	return s.ref
}

// Workspace is the scratch one goroutine needs to run a Space's
// simulations back to back without allocating: the integrator's buffers
// and the parameter values of the simulations in flight — one, or up to
// dynsys.Lanes for a batch, one buffer for all of them. Its caller owns it
// (the fan-outs hold one per chunk); the zero value is ready to use.
type Workspace struct {
	ode  ode.Workspace
	vals []float64
}

// values returns the workspace's value buffer at length n.
func (w *Workspace) values(n int) []float64 {
	if cap(w.vals) < n {
		w.vals = make([]float64, n)
	}
	return w.vals[:n]
}

// SimCellsLanesInto runs the simulations at keys — 1 to dynsys.Lanes
// C-order linear indices of the parameter grid, see SimIndex — and writes
// the i-th one's cells into dst[i·TimeSamples:(i+1)·TimeSamples]: bit for
// bit what dynsys.Cells writes for each alone, through dynsys.CellsLanes,
// so the double pendulum runs them on the four-lane packed kernel where
// the CPU has AVX2. It is the one batch both fan-outs run: the campaign
// fan-out's (SimulateCtx) and the ground truths' and accuracy estimates'
// (TruthFibers).
func (s *Space) SimCellsLanesInto(w *Workspace, keys []int, dst []float64) {
	dynsys.CellsLanes(&w.ode, s.Sys, s.keyValues(w, keys), s.Reference(), dst)
}

// SimCellsCtx runs the simulation at the given parameter grid indices on
// the scalar kernel (dynsys.Cells), after a context check, and returns its
// tensor cell values for all TimeSamples timestamps in a fresh slice.
func (s *Space) SimCellsCtx(ctx context.Context, idx []int) ([]float64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]float64, s.TimeSamples)
	w := new(Workspace)
	dynsys.Cells(&w.ode, s.Sys, s.paramValues(w, idx), s.Reference(), out)
	return out, nil
}

// DefaultIndex returns the grid index used as the fixing constant for a
// parameter mode: the grid midpoint.
func (s *Space) DefaultIndex() int { return s.Res / 2 }

// GroundTruth exhaustively simulates the full parameter space and returns
// the complete tensor Y ∈ R^{Res×…×Res×T}. The result is cached. Time is
// the last mode, so a simulation's cells are contiguous and TruthFibers
// writes them in place. No fault is injected there: injection is a
// SimulateCtx option.
func (s *Space) GroundTruth() *tensor.Dense {
	s.truthOnce.Do(func() {
		d := tensor.NewDense(s.Shape())
		s.TruthFibers(s.TotalSims(), func(i int) int { return i }, d.Data)
		s.truth = d
	})
	return s.truth
}
