package ensemble

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/dynsys"
	"repro/internal/faults"
	"repro/internal/parallel"
)

func encodeSpace(sys dynsys.System) *Space { return NewSpace(sys, 5, 4) }

func TestEncodeCtxMatchesEncode(t *testing.T) {
	space := encodeSpace(dynsys.NewLorenz())
	sims := RandomSample(space, 30, rand.New(rand.NewSource(3)))
	want, _, err := EncodeCtx(context.Background(), space, sims, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 7} {
		got, stats, err := EncodeCtx(context.Background(), space, sims, SimOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Tensor.Idx, want.Tensor.Idx) || !reflect.DeepEqual(got.Tensor.Vals, want.Tensor.Vals) {
			t.Fatalf("workers=%d: EncodeCtx differs from Encode", workers)
		}
		if stats.ExecutedSims != len(sims) || stats.FailedSims != 0 || stats.QuarantinedCells != 0 {
			t.Fatalf("workers=%d: clean-run stats %+v", workers, stats)
		}
	}
}

func TestEncodeCtxCancelled(t *testing.T) {
	space := encodeSpace(dynsys.NewLorenz())
	sims := RandomSample(space, 10, rand.New(rand.NewSource(4)))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := EncodeCtx(ctx, space, sims, SimOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
}

func TestEncodeCtxFaultAccounting(t *testing.T) {
	inj := faults.New(faults.Config{Seed: 31, TransientRate: 0.3, DivergentRate: 0.25})
	space := encodeSpace(dynsys.NewLorenz())
	sims := RandomSample(space, 40, rand.New(rand.NewSource(5)))

	se, stats, err := EncodeCtx(context.Background(), space, sims, SimOptions{Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	is := inj.Stats()
	if is.TransientSims == 0 || is.DivergentSims == 0 {
		t.Fatalf("no faults injected (%+v); test is vacuous", is)
	}
	if stats.FailedSims != 0 {
		t.Fatalf("recoverable faults produced %d failed sims", stats.FailedSims)
	}
	if stats.RetriedSims != is.TransientSims {
		t.Fatalf("RetriedSims %d != injected transient sims %d", stats.RetriedSims, is.TransientSims)
	}
	// Each divergent simulation's TimeSamples cells are all quarantined.
	if want := is.DivergentSims * space.TimeSamples; stats.QuarantinedCells != want {
		t.Fatalf("QuarantinedCells %d != %d divergent sims × %d stamps", stats.QuarantinedCells, is.DivergentSims, space.TimeSamples)
	}
	if se.Tensor.NNZ()+stats.QuarantinedCells != len(sims)*space.TimeSamples {
		t.Fatalf("stored %d + quarantined %d != %d requested cells", se.Tensor.NNZ(), stats.QuarantinedCells, len(sims)*space.TimeSamples)
	}
}

// lateDivergent wraps a system so that some trajectories turn non-finite
// part-way: a simulation whose first parameter lies above the middle of
// its range reads NaN at even stamps from stamp from on and +Inf at odd
// ones. The reference (40 % into every range) stays finite. sims counts
// the divergent trajectories simulated.
type lateDivergent struct {
	dynsys.System
	from int
	sims *atomic.Int64
}

func (s lateDivergent) Trajectory(vals []float64, n int) [][]float64 {
	out := s.System.Trajectory(vals, n)
	if p := s.Params()[0]; vals[0] > (p.Min+p.Max)/2 {
		s.sims.Add(1)
		for t := s.from; t < n; t++ {
			for i := range out[t] {
				out[t][i] = math.NaN()
				if t%2 == 1 {
					out[t][i] = math.Inf(1)
				}
			}
		}
	}
	return out
}

// TestEncodeCtxQuarantinesPartialDivergence: a trajectory that turns
// non-finite after some stamp keeps its finite stamps, and each of its
// non-finite ones is dropped and counted once.
func TestEncodeCtxQuarantinesPartialDivergence(t *testing.T) {
	const stamps, from = 8, 3
	var diverged atomic.Int64
	space := NewSpace(lateDivergent{System: dynsys.NewLorenz(), from: from, sims: &diverged}, 5, stamps)
	sims := RandomSample(space, 30, rand.New(rand.NewSource(6)))
	se, stats, err := EncodeCtx(context.Background(), space, sims, SimOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	n := int(diverged.Load())
	if n == 0 || n == len(sims) {
		t.Fatalf("%d of %d simulations diverged; the drill needs some of each", n, len(sims))
	}
	if want := n * (stamps - from); stats.QuarantinedCells != want {
		t.Fatalf("QuarantinedCells %d != %d divergent sims × %d late stamps", stats.QuarantinedCells, n, stamps-from)
	}
	if se.Tensor.NNZ()+stats.QuarantinedCells != len(sims)*stamps {
		t.Fatalf("stored %d + quarantined %d != %d requested cells", se.Tensor.NNZ(), stats.QuarantinedCells, len(sims)*stamps)
	}
	se.Tensor.Each(func(idx []int, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite value %v stored at %v", v, idx)
		}
	})
}

// TestSimulateCtxFaultsPerSimulationInAUnit: injection is decided per
// simulation, not per fan-out unit. At seed 84 each of the two units of
// dynsys.Lanes double-pendulum keys holds a divergent simulation, a clean
// one, one whose transient error clears on its retry and one that panics,
// in a different order; each keeps its own fate. The divergent
// simulation's cells are all NaN, the panicked one's entry is nil, and the
// clean and recovered ones hold the scalar kernel's bits at their values.
func TestSimulateCtxFaultsPerSimulationInAUnit(t *testing.T) {
	defer parallel.SetFanoutCap(parallel.SetFanoutCap(2))
	cfg := faults.Config{Seed: 84, TransientRate: 0.25, DivergentRate: 0.25, PanicRate: 0.25}
	want := "DCTP" + "TDCP" // D divergent, C clean, T transient then clean, P panic
	space := NewSpace(dynsys.NewDoublePendulum(), 5, 6)
	for _, workers := range []int{1, 2} {
		inj := faults.New(cfg)
		cells, stats, err := space.SimulateCtx(context.Background(), "mixed", len(want), func(i int) int { return i }, SimOptions{Workers: workers, Faults: inj})
		if err != nil {
			t.Fatal(err)
		}
		if want := (SimStats{ExecutedSims: 6, RetriedSims: 2, FailedSims: 2}); stats != want {
			t.Fatalf("workers=%d: stats %+v, want %+v", workers, stats, want)
		}
		if is, want := inj.Stats(), (faults.Stats{Attempts: 10, TransientFailures: 2, TransientSims: 2, DivergentSims: 2, PanickedSims: 2}); is != want {
			t.Fatalf("workers=%d: injector stats %+v, want %+v", workers, is, want)
		}
		idx := make([]int, space.NumParams())
		for key, kind := range want {
			got := cells[key]
			space.SimIndex(key, idx)
			clean := space.SimCells(idx)
			switch kind {
			case 'P':
				if got != nil {
					t.Fatalf("workers=%d key %d: a panicked simulation kept cells %v", workers, key, got)
				}
			case 'D':
				for c, v := range got {
					if !math.IsNaN(v) {
						t.Fatalf("workers=%d key %d cell %d: divergent simulation stored %v, want NaN", workers, key, c, v)
					}
				}
				if len(got) != space.TimeSamples {
					t.Fatalf("workers=%d key %d: divergent simulation has %d cells", workers, key, len(got))
				}
			default:
				if len(got) != len(clean) {
					t.Fatalf("workers=%d key %d: %d cells, want %d", workers, key, len(got), len(clean))
				}
				for c, v := range clean {
					if math.Float64bits(got[c]) != math.Float64bits(v) {
						t.Fatalf("workers=%d key %d (%c) cell %d: %v, alone %v", workers, key, kind, c, got[c], v)
					}
				}
			}
		}
	}
}
