package ensemble

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/dynsys"
)

// TestSimCellsIntoSteadyStateDoesNotAllocate: with a warm workspace, a
// batch through the lanes entry at 1 to dynsys.Lanes lanes costs 0
// allocations for every built-in system: no parameter list, no value
// slice, no trajectory.
func TestSimCellsIntoSteadyStateDoesNotAllocate(t *testing.T) {
	for _, sys := range dynsys.All() {
		s := NewSpace(sys, 12, 12)
		s.Reference()
		keys := []int{6081, 6082, 6094, 7809}
		dst := make([]float64, dynsys.Lanes*s.TimeSamples)
		var w Workspace
		s.SimCellsLanesInto(&w, keys, dst) // size the workspace
		for n := 1; n <= dynsys.Lanes; n++ {
			if a := testing.AllocsPerRun(20, func() { s.SimCellsLanesInto(&w, keys[:n], dst[:n*s.TimeSamples]) }); a != 0 {
				t.Errorf("%s: SimCellsLanesInto allocates %v times at %d lanes, want 0", sys.Name(), a, n)
			}
		}
	}
}

// SimCells is the scalar kernel at idx alone, into a fresh workspace and
// result slice: the oracle the batched entries are held to.
func (s *Space) SimCells(idx []int) []float64 {
	out := make([]float64, s.TimeSamples)
	w := new(Workspace)
	dynsys.Cells(&w.ode, s.Sys, s.paramValues(w, idx), s.Reference(), out)
	return out
}

// TestSimCellsEntriesAgree: the entries — the scalar oracle, the
// cancellable SimCellsCtx and the lanes entry at one key — return the same
// bits, and a workspace carried from one system to the next (different
// state dimensions) does not leak state.
func TestSimCellsEntriesAgree(t *testing.T) {
	var w Workspace
	for _, sys := range dynsys.All() {
		s := NewSpace(sys, 5, 7)
		idx := []int{1, 4, 0, 3}
		want := s.SimCells(idx)
		viaCtx, err := s.SimCellsCtx(context.Background(), idx)
		if err != nil {
			t.Fatal(err)
		}
		lanes := make([]float64, s.TimeSamples)
		s.SimCellsLanesInto(&w, []int{((1*5+4)*5+0)*5 + 3}, lanes)
		for i := range want {
			if want[i] != viaCtx[i] || want[i] != lanes[i] {
				t.Fatalf("%s cell %d: SimCells %v, SimCellsCtx %v, SimCellsLanesInto %v",
					sys.Name(), i, want[i], viaCtx[i], lanes[i])
			}
		}
	}
}

// TestTruthFibersPairingIndependent: TruthFibers groups consecutive keys
// into units of up to dynsys.Lanes, and a key list whose length is no
// multiple of it ends on a shorter unit; every fibre is still the bits
// SimCells produces for its key alone, for every system.
func TestTruthFibersPairingIndependent(t *testing.T) {
	for _, sys := range dynsys.All() {
		s := NewSpace(sys, 5, 7)
		for _, n := range []int{1, 2, 3, 4, 5, 7, 13} {
			key := func(i int) int { return (i*97 + 3) % s.TotalSims() }
			got := make([]float64, n*s.TimeSamples)
			s.TruthFibers(n, key, got)
			idx := make([]int, s.NumParams())
			for i := 0; i < n; i++ {
				s.SimIndex(key(i), idx)
				want := s.SimCells(idx)
				for c, v := range want {
					if math.Float64bits(got[i*s.TimeSamples+c]) != math.Float64bits(v) {
						t.Fatalf("%s n=%d fibre %d cell %d: %v, alone %v", sys.Name(), n, i, c, got[i*s.TimeSamples+c], v)
					}
				}
			}
		}
	}
}

// BenchmarkSimCells is the kernel-tier benchmark of the simulation kernel:
// one steady-state simulation per system at 12 time samples on the scalar
// kernel, and double-pendulum batches of 1 to dynsys.Lanes simulations
// through the lanes entry, reported per simulation.
func BenchmarkSimCells(b *testing.B) {
	for _, sys := range dynsys.All() {
		b.Run(sys.Name(), func(b *testing.B) {
			s := NewSpace(sys, 12, 12)
			s.Reference()
			idx := []int{3, 7, 2, 9}
			dst := make([]float64, s.TimeSamples)
			var w Workspace
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dynsys.Cells(&w.ode, s.Sys, s.paramValues(&w, idx), s.Reference(), dst)
			}
		})
	}
	for n := 1; n <= dynsys.Lanes; n++ {
		b.Run(fmt.Sprintf("double-pendulum-lanes-%d", n), func(b *testing.B) {
			s := NewSpace(dynsys.NewDoublePendulum(), 12, 12)
			s.Reference()
			keys := []int{6081, 6082, 6083, 6084}[:n]
			dst := make([]float64, n*s.TimeSamples)
			var w Workspace
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.SimCellsLanesInto(&w, keys, dst)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n*b.N), "ns/sim")
		})
	}
}
