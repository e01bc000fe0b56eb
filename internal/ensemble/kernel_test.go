package ensemble

import (
	"context"
	"math"
	"testing"

	"repro/internal/dynsys"
)

// TestSimCellsIntoSteadyStateDoesNotAllocate: with a warm workspace, a
// simulation through any Space entry — the pair entry included — costs 0
// allocations for every built-in system: no parameter list, no value
// slice, no trajectory.
func TestSimCellsIntoSteadyStateDoesNotAllocate(t *testing.T) {
	ctx := context.Background()
	for _, sys := range dynsys.All() {
		s := NewSpace(sys, 12, 12)
		s.Reference()
		idx, idxB := []int{3, 7, 2, 9}, []int{3, 7, 2, 10}
		dst, dstB := make([]float64, s.TimeSamples), make([]float64, s.TimeSamples)
		var w Workspace
		s.SimCellsPairInto(&w, idx, idxB, dst, dstB) // size the workspace
		if a := testing.AllocsPerRun(20, func() { s.SimCellsInto(&w, idx, dst) }); a != 0 {
			t.Errorf("%s: SimCellsInto allocates %v times per simulation, want 0", sys.Name(), a)
		}
		if a := testing.AllocsPerRun(20, func() { s.SimCellsPairInto(&w, idx, idxB, dst, dstB) }); a != 0 {
			t.Errorf("%s: SimCellsPairInto allocates %v times per pair, want 0", sys.Name(), a)
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

// TestTruthFibersPairingIndependent: TruthFibers pairs consecutive keys,
// and a key list of odd length ends on a single simulation; every fibre is
// still the bits SimCells produces for its key alone, for every system.
func TestTruthFibersPairingIndependent(t *testing.T) {
	for _, sys := range dynsys.All() {
		s := NewSpace(sys, 5, 7)
		for _, n := range []int{1, 2, 7, 13} {
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

// BenchmarkSimCells is the kernel-tier benchmark of the simulation kernel: one
// steady-state simulation per system at 12 time samples, and one pair of
// double-pendulum simulations through the pair entry, reported per
// simulation.
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
	b.Run("double-pendulum-pair", func(b *testing.B) {
		s := NewSpace(dynsys.NewDoublePendulum(), 12, 12)
		s.Reference()
		idxA, idxB := []int{3, 7, 2, 9}, []int{3, 7, 2, 10}
		dstA, dstB := make([]float64, s.TimeSamples), make([]float64, s.TimeSamples)
		var w Workspace
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.SimCellsPairInto(&w, idxA, idxB, dstA, dstB)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/sim")
	})
}
