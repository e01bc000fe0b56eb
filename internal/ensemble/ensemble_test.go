package ensemble

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/dynsys"
)

// tinySpace returns a small double-pendulum space suitable for unit tests.
func tinySpace() *Space {
	return NewSpace(dynsys.NewDoublePendulum(), 4, 3)
}

func TestSpaceGeometry(t *testing.T) {
	s := tinySpace()
	if s.NumParams() != 4 || s.Order() != 5 || s.TimeMode() != 4 {
		t.Fatalf("geometry: params=%d order=%d timeMode=%d", s.NumParams(), s.Order(), s.TimeMode())
	}
	shape := s.Shape()
	want := []int{4, 4, 4, 4, 3}
	for i, d := range want {
		if shape[i] != d {
			t.Fatalf("Shape = %v, want %v", shape, want)
		}
	}
	if s.TotalSims() != 256 {
		t.Fatalf("TotalSims = %d, want 256", s.TotalSims())
	}
	if s.DefaultIndex() != 2 {
		t.Fatalf("DefaultIndex = %d, want 2", s.DefaultIndex())
	}
}

func TestSpaceInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSpace(0, 0) did not panic")
		}
	}()
	NewSpace(dynsys.NewDoublePendulum(), 0, 0)
}

func TestModeNames(t *testing.T) {
	s := tinySpace()
	want := []string{"phi1", "phi2", "m1", "m2", "t"}
	for mode, name := range want {
		if got := s.ModeName(mode); got != name {
			t.Fatalf("ModeName(%d) = %q, want %q", mode, got, name)
		}
	}
}

func TestParamValuesEndpoints(t *testing.T) {
	s := tinySpace()
	ps := s.Sys.Params()
	idx := []int{0, 3, 0, 3}
	vals := s.paramValues(new(Workspace), idx)
	if vals[0] != ps[0].Min || vals[1] != ps[1].Max || vals[2] != ps[2].Min || vals[3] != ps[3].Max {
		t.Fatalf("paramValues endpoints = %v", vals)
	}
	// keyValues reads the same point off its linear key, in every lane.
	key := 0
	for _, i := range idx {
		key = key*s.Res + i
	}
	lanes := s.keyValues(new(Workspace), []int{key, key})
	for j, v := range lanes {
		if v != vals[j%len(vals)] {
			t.Fatalf("keyValues(%d, %d) = %v, paramValues %v", key, key, lanes, vals)
		}
	}
}

func TestGroundTruthCachedAndConsistent(t *testing.T) {
	s := tinySpace()
	y1 := s.GroundTruth()
	y2 := s.GroundTruth()
	if y1 != y2 {
		t.Fatal("GroundTruth not cached")
	}
	// Spot-check one cell against a direct simulation.
	idx := []int{1, 2, 3, 0}
	cells := s.SimCells(idx)
	for tt, want := range cells {
		if got := y1.At(1, 2, 3, 0, tt); math.Abs(got-want) > 1e-12 {
			t.Fatalf("GroundTruth[1,2,3,0,%d] = %v, want %v", tt, got, want)
		}
	}
	if y1.Norm() == 0 {
		t.Fatal("ground truth is all zeros")
	}
}

func TestRandomSampleDistinctAndInRange(t *testing.T) {
	s := tinySpace()
	rng := rand.New(rand.NewSource(70))
	sims := RandomSample(s, 50, rng)
	if len(sims) != 50 {
		t.Fatalf("got %d sims, want 50", len(sims))
	}
	seen := map[int]bool{}
	for _, sim := range sims {
		for _, i := range sim {
			if i < 0 || i >= s.Res {
				t.Fatalf("index out of range: %v", sim)
			}
		}
		k := sim.key(s.Res)
		if seen[k] {
			t.Fatalf("duplicate simulation %v", sim)
		}
		seen[k] = true
	}
}

func TestRandomSampleBudgetClamped(t *testing.T) {
	s := tinySpace()
	rng := rand.New(rand.NewSource(71))
	sims := RandomSample(s, 10_000, rng)
	if len(sims) != s.TotalSims() {
		t.Fatalf("clamped budget: got %d, want %d", len(sims), s.TotalSims())
	}
}

func TestGridSample(t *testing.T) {
	s := NewSpace(dynsys.NewDoublePendulum(), 8, 3)
	sims := GridSample(s, 16) // g = 2 per mode -> 16 sims
	if len(sims) != 16 {
		t.Fatalf("got %d sims, want 16", len(sims))
	}
	// With g=2 the grid positions are 0 and Res-1.
	for _, sim := range sims {
		for _, i := range sim {
			if i != 0 && i != 7 {
				t.Fatalf("unexpected grid position in %v", sim)
			}
		}
	}
	// Budget below 2^4 collapses to the single midpoint.
	one := GridSample(s, 15)
	if len(one) != 1 || one[0][0] != 4 {
		t.Fatalf("g=1 grid = %v, want single midpoint", one)
	}
}

func TestGridSampleBudgetRespected(t *testing.T) {
	s := NewSpace(dynsys.NewDoublePendulum(), 8, 3)
	for _, budget := range []int{1, 16, 81, 100, 500} {
		sims := GridSample(s, budget)
		if len(sims) > budget {
			t.Fatalf("budget %d: grid produced %d sims", budget, len(sims))
		}
	}
}

func TestSliceSample(t *testing.T) {
	s := NewSpace(dynsys.NewDoublePendulum(), 6, 3)
	rng := rand.New(rand.NewSource(72))
	sims := SliceSample(s, 90, rng)
	if len(sims) != 90 {
		t.Fatalf("got %d sims, want 90", len(sims))
	}
	seen := map[int]bool{}
	for _, sim := range sims {
		k := sim.key(s.Res)
		if seen[k] {
			t.Fatalf("duplicate simulation %v", sim)
		}
		seen[k] = true
	}
}

// encode is EncodeCtx on a background context with default options.
func encode(t *testing.T, s *Space, sims []Sim) *SparseEnsemble {
	t.Helper()
	se, _, err := EncodeCtx(context.Background(), s, sims, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return se
}

func TestEncodeProducesFullTrajectories(t *testing.T) {
	s := tinySpace()
	rng := rand.New(rand.NewSource(73))
	sims := RandomSample(s, 20, rng)
	se := encode(t, s, sims)
	if se.NumSims != 20 {
		t.Fatalf("NumSims = %d, want 20", se.NumSims)
	}
	if se.Tensor.NNZ() != 20*s.TimeSamples {
		t.Fatalf("NNZ = %d, want %d", se.Tensor.NNZ(), 20*s.TimeSamples)
	}
	// Every encoded cell matches the ground truth.
	y := s.GroundTruth()
	se.Tensor.Each(func(idx []int, v float64) {
		if got := y.Data[y.Shape.LinearIndex(idx)]; math.Abs(got-v) > 1e-12 {
			t.Fatalf("cell %v = %v, truth %v", idx, v, got)
		}
	})
	if se.String() == "" {
		t.Fatal("String() empty")
	}
}

func TestEncodeDensityMatchesBudget(t *testing.T) {
	s := tinySpace()
	rng := rand.New(rand.NewSource(74))
	se := encode(t, s, RandomSample(s, 32, rng))
	wantDensity := float64(32*s.TimeSamples) / float64(s.Shape().NumElements())
	if math.Abs(se.Tensor.Density()-wantDensity) > 1e-12 {
		t.Fatalf("density = %v, want %v", se.Tensor.Density(), wantDensity)
	}
}

// Property: samplers never exceed budget and never emit duplicates.
func TestSamplerInvariantsQuick(t *testing.T) {
	s := tinySpace()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		budget := 1 + rng.Intn(100)
		for _, sims := range [][]Sim{
			RandomSample(s, budget, rng),
			GridSample(s, budget),
			SliceSample(s, budget, rng),
		} {
			if len(sims) > budget {
				return false
			}
			seen := map[int]bool{}
			for _, sim := range sims {
				k := sim.key(s.Res)
				if seen[k] {
					return false
				}
				seen[k] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(75))}); err != nil {
		t.Error(err)
	}
}

func TestLatinHypercubeSample(t *testing.T) {
	s := NewSpace(dynsys.NewDoublePendulum(), 8, 3)
	rng := rand.New(rand.NewSource(77))
	sims := LatinHypercubeSample(s, 40, rng)
	if len(sims) != 40 {
		t.Fatalf("%d sims, want 40", len(sims))
	}
	seen := map[int]bool{}
	for _, sim := range sims {
		for _, i := range sim {
			if i < 0 || i >= s.Res {
				t.Fatalf("index out of range: %v", sim)
			}
		}
		k := sim.key(s.Res)
		if seen[k] {
			t.Fatalf("duplicate simulation %v", sim)
		}
		seen[k] = true
	}
}

func TestLatinHypercubeMarginalCoverage(t *testing.T) {
	// With budget == Res, every grid value of every parameter appears
	// exactly once (the defining Latin property), up to rounding
	// collisions resolved randomly — require at least Res-1 distinct
	// values per parameter.
	s := NewSpace(dynsys.NewDoublePendulum(), 10, 3)
	rng := rand.New(rand.NewSource(78))
	sims := LatinHypercubeSample(s, 10, rng)
	for k := 0; k < s.NumParams(); k++ {
		values := map[int]bool{}
		for _, sim := range sims {
			values[sim[k]] = true
		}
		if len(values) < s.Res-1 {
			t.Fatalf("parameter %d covers only %d of %d values", k, len(values), s.Res)
		}
	}
}

func TestLatinHypercubeEdgeCases(t *testing.T) {
	s := NewSpace(dynsys.NewDoublePendulum(), 3, 2)
	rng := rand.New(rand.NewSource(79))
	if got := LatinHypercubeSample(s, 0, rng); got != nil {
		t.Fatalf("zero budget returned %v", got)
	}
	all := LatinHypercubeSample(s, 10_000, rng)
	if len(all) != s.TotalSims() {
		t.Fatalf("clamped budget: %d, want %d", len(all), s.TotalSims())
	}
}

// TestSampleSchemeNames: every accepted scheme name, in any case, draws the
// sims its sampler draws from the same rng state; an unknown name is an
// error.
func TestSampleSchemeNames(t *testing.T) {
	s := tinySpace()
	for _, tc := range []struct {
		names []string
		draw  func(rng *rand.Rand) []Sim
	}{
		{[]string{"random", "Random"}, func(rng *rand.Rand) []Sim { return RandomSample(s, 20, rng) }},
		{[]string{"grid", "GRID"}, func(*rand.Rand) []Sim { return GridSample(s, 20) }},
		{[]string{"slice"}, func(rng *rand.Rand) []Sim { return SliceSample(s, 20, rng) }},
		{[]string{"lhs", "latin", "latin-hypercube", "LHS"}, func(rng *rand.Rand) []Sim { return LatinHypercubeSample(s, 20, rng) }},
	} {
		want := tc.draw(rand.New(rand.NewSource(7)))
		for _, name := range tc.names {
			got, err := Sample(s, name, 20, rand.New(rand.NewSource(7)))
			if err != nil {
				t.Fatalf("Sample(%q): %v", name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Sample(%q) drew %v, its sampler %v", name, got, want)
			}
		}
	}
	if sims, err := Sample(s, "sobol", 20, rand.New(rand.NewSource(7))); err == nil {
		t.Fatalf("unknown scheme accepted: %v", sims)
	}
}
