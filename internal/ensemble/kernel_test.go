package ensemble

import (
	"context"
	"testing"

	"repro/internal/dynsys"
)

// TestSimCellsIntoSteadyStateDoesNotAllocate: with a warm workspace, a
// simulation through either Space entry costs 0 allocations for every
// built-in system — no parameter list, no value slice, no trajectory.
func TestSimCellsIntoSteadyStateDoesNotAllocate(t *testing.T) {
	ctx := context.Background()
	for _, sys := range dynsys.All() {
		s := NewSpace(sys, 12, 12)
		s.Reference()
		idx := []int{3, 7, 2, 9}
		dst := make([]float64, s.TimeSamples)
		var w Workspace
		s.SimCellsInto(&w, idx, dst) // size the workspace
		if a := testing.AllocsPerRun(20, func() { s.SimCellsInto(&w, idx, dst) }); a != 0 {
			t.Errorf("%s: SimCellsInto allocates %v times per simulation, want 0", sys.Name(), a)
		}
		if a := testing.AllocsPerRun(20, func() {
			if err := s.SimCellsIntoCtx(ctx, &w, idx, dst); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("%s: SimCellsIntoCtx allocates %v times per simulation, want 0", sys.Name(), a)
		}
	}
}

// SimCells is SimCellsInto with a fresh workspace and result slice — the
// infallible allocating entry, which only tests call.
func (s *Space) SimCells(idx []int) []float64 {
	out := make([]float64, s.TimeSamples)
	s.SimCellsInto(new(Workspace), idx, out)
	return out
}

// TestSimCellsEntriesAgree: the two workspace entries and their two
// allocating wrappers return the same bits, and a workspace carried from
// one system to the next (different state dimensions) does not leak state.
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
		into := make([]float64, s.TimeSamples)
		s.SimCellsInto(&w, idx, into)
		intoCtx := make([]float64, s.TimeSamples)
		if err := s.SimCellsIntoCtx(context.Background(), &w, idx, intoCtx); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if want[i] != viaCtx[i] || want[i] != into[i] || want[i] != intoCtx[i] {
				t.Fatalf("%s cell %d: SimCells %v, SimCellsCtx %v, SimCellsInto %v, SimCellsIntoCtx %v",
					sys.Name(), i, want[i], viaCtx[i], into[i], intoCtx[i])
			}
		}
	}
}

// BenchmarkSimCells is the kernel-tier gate of the simulation kernel: one
// steady-state simulation per system at 12 time samples.
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
				s.SimCellsInto(&w, idx, dst)
			}
		})
	}
}
