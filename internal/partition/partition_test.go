package partition

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/dynsys"
	"repro/internal/ensemble"
)

func tinySpace() *ensemble.Space {
	return ensemble.NewSpace(dynsys.NewDoublePendulum(), 4, 3)
}

// doublePendulumPairs keeps each pendulum's parameters in one sub-system:
// modes (φ1, φ2, m1, m2, t) pair as {0,2} and {1,3}.
var doublePendulumPairs = [][2]int{{0, 2}, {1, 3}}

func TestConfigValidate(t *testing.T) {
	good := Config{Pivots: []int{4}, Free1: []int{0, 2}, Free2: []int{1, 3}, PivotFrac: 1, FreeFrac: 1}
	if err := good.Validate(5); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Pivots: []int{4}, Free1: []int{0, 2}, Free2: []int{1, 3}, PivotFrac: 0, FreeFrac: 1},          // P=0
		{Pivots: []int{4}, Free1: []int{0, 2}, Free2: []int{1, 3}, PivotFrac: 1, FreeFrac: 1.5},        // E>1
		{Pivots: []int{4}, Free1: []int{0, 2}, Free2: []int{1, 3}, PivotFrac: math.NaN(), FreeFrac: 1}, // P=NaN
		{Pivots: []int{4}, Free1: []int{0, 2}, Free2: []int{1, 3}, PivotFrac: 1, FreeFrac: math.NaN()}, // E=NaN
		{Pivots: []int{4}, Free1: []int{0, 2}, Free2: []int{1}, PivotFrac: 1, FreeFrac: 1},             // mode 3 missing
		{Pivots: []int{4}, Free1: []int{0, 2, 3}, Free2: []int{1, 3}, PivotFrac: 1, FreeFrac: 1},       // mode 3 twice
		{Pivots: []int{5}, Free1: []int{0, 1, 2}, Free2: []int{3, 4}, PivotFrac: 1, FreeFrac: 1},       // out of range
		{Pivots: nil, Free1: []int{0, 1, 4}, Free2: []int{2, 3}, PivotFrac: 1, FreeFrac: 1},            // no pivot
		{Pivots: []int{0, 1, 2, 3, 4}, Free1: nil, Free2: nil, PivotFrac: 1, FreeFrac: 1},              // no free
	}
	for i, cfg := range bad {
		if err := cfg.Validate(5); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestDefaultConfigPairAware(t *testing.T) {
	// Pivot on time: the two pendulums' parameters split cleanly.
	cfg := DefaultConfig(5, 4, doublePendulumPairs)
	if len(cfg.Pivots) != 1 || cfg.Pivots[0] != 4 {
		t.Fatalf("Pivots = %v", cfg.Pivots)
	}
	got1 := append([]int(nil), cfg.Free1...)
	got2 := append([]int(nil), cfg.Free2...)
	sort.Ints(got1)
	sort.Ints(got2)
	halves := map[string]bool{
		"[0 2]": true, // pendulum 1
		"[1 3]": true, // pendulum 2
	}
	key := func(v []int) string {
		if len(v) != 2 {
			return "?"
		}
		return "[" + string(rune('0'+v[0])) + " " + string(rune('0'+v[1])) + "]"
	}
	if !halves[key(got1)] || !halves[key(got2)] || key(got1) == key(got2) {
		t.Fatalf("pair-aware split broken: %v | %v", got1, got2)
	}
}

func TestDefaultConfigEveryPivotValid(t *testing.T) {
	// Table VIII varies the pivot over all five modes; every resulting
	// config must be valid and keep intact pendulum pairs together.
	for pivot := 0; pivot < 5; pivot++ {
		cfg := DefaultConfig(5, pivot, doublePendulumPairs)
		if err := cfg.Validate(5); err != nil {
			t.Fatalf("pivot %d: %v", pivot, err)
		}
		// Whole pairs that survive the pivot must be in one half.
		for _, pair := range doublePendulumPairs {
			if pair[0] == pivot || pair[1] == pivot {
				continue
			}
			in1a, in1b := contains(cfg.Free1, pair[0]), contains(cfg.Free1, pair[1])
			if in1a != in1b {
				t.Fatalf("pivot %d split pair %v: Free1=%v Free2=%v", pivot, pair, cfg.Free1, cfg.Free2)
			}
		}
	}
}

func TestDefaultConfigNoPairs(t *testing.T) {
	cfg := DefaultConfig(5, 4, nil)
	if err := cfg.Validate(5); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Free1) != 2 || len(cfg.Free2) != 2 {
		t.Fatalf("unbalanced halves: %v | %v", cfg.Free1, cfg.Free2)
	}
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func TestGenerateFullDensity(t *testing.T) {
	space := tinySpace()
	cfg := DefaultConfig(5, 4, doublePendulumPairs)
	res, err := GenerateCtx(context.Background(), space, cfg, rand.New(rand.NewSource(80)), SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Pivot = time: P configs = 3 timestamps; E = 4² free combos per side.
	if got := len(res.PivotConfigs); got != 3 {
		t.Fatalf("pivot configs = %d, want 3", got)
	}
	if got := len(res.Free1Configs); got != 16 {
		t.Fatalf("free1 configs = %d, want 16", got)
	}
	// Sub-tensors are fully dense over (t, pᵃ, pᵇ): 3·4·4 entries.
	if got := res.Sub1.Tensor.NNZ(); got != 48 {
		t.Fatalf("sub1 NNZ = %d, want 48", got)
	}
	// With pivot = t, each sub-system runs one simulation per free combo.
	if res.Sub1.NumSims != 16 || res.Sub2.NumSims != 16 {
		t.Fatalf("sims = %d, %d, want 16 each", res.Sub1.NumSims, res.Sub2.NumSims)
	}
	if res.NumSims != 32 {
		t.Fatalf("total sims = %d, want 32", res.NumSims)
	}
	// Modes: pivots first.
	if res.Sub1.Modes[0] != 4 || res.Sub1.NumPivots != 1 {
		t.Fatalf("sub1 modes = %v (pivots %d)", res.Sub1.Modes, res.Sub1.NumPivots)
	}
}

func TestGenerateCellsMatchGroundTruth(t *testing.T) {
	space := tinySpace()
	cfg := DefaultConfig(5, 4, doublePendulumPairs)
	res, err := GenerateCtx(context.Background(), space, cfg, rand.New(rand.NewSource(81)), SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	y := space.GroundTruth()
	def := space.DefaultIndex()
	// Every sub-tensor cell must equal the ground truth at the sub-system's
	// coordinates with the other half's parameters fixed at the default.
	check := func(sub *SubEnsemble) {
		full := make([]int, 5)
		sub.Tensor.Each(func(idx []int, v float64) {
			for m := 0; m < 4; m++ {
				full[m] = def
			}
			full[4] = space.TimeSamples / 2
			for i, m := range sub.Modes {
				full[m] = idx[i]
			}
			want := y.Data[y.Shape.LinearIndex(full)]
			if math.Abs(want-v) > 1e-12 {
				t.Fatalf("sub cell %v = %v, truth %v", idx, v, want)
			}
		})
	}
	check(res.Sub1)
	check(res.Sub2)
}

func TestGenerateReducedPivotDensity(t *testing.T) {
	space := tinySpace()
	cfg := DefaultConfig(5, 4, doublePendulumPairs)
	cfg.PivotFrac = 0.5
	res, err := GenerateCtx(context.Background(), space, cfg, rand.New(rand.NewSource(82)), SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// ceil(0.5 · 3) = 2 pivot configs.
	if got := len(res.PivotConfigs); got != 2 {
		t.Fatalf("pivot configs = %d, want 2", got)
	}
	if got := res.Sub1.Tensor.NNZ(); got != 2*16 {
		t.Fatalf("sub1 NNZ = %d, want 32", got)
	}
	// With pivot = t, fewer timestamps do not reduce simulations.
	if res.Sub1.NumSims != 16 {
		t.Fatalf("sims = %d, want 16", res.Sub1.NumSims)
	}
}

func TestGenerateReducedFreeDensity(t *testing.T) {
	space := tinySpace()
	cfg := DefaultConfig(5, 4, doublePendulumPairs)
	cfg.FreeFrac = 0.25
	res, err := GenerateCtx(context.Background(), space, cfg, rand.New(rand.NewSource(83)), SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// ceil(0.25 · 16) = 4 free configs per side.
	if got := len(res.Free1Configs); got != 4 {
		t.Fatalf("free1 configs = %d, want 4", got)
	}
	if res.Sub1.NumSims != 4 {
		t.Fatalf("sub1 sims = %d, want 4", res.Sub1.NumSims)
	}
	if got := res.Sub1.Tensor.NNZ(); got != 3*4 {
		t.Fatalf("sub1 NNZ = %d, want 12", got)
	}
}

func TestGenerateParameterPivot(t *testing.T) {
	// Pivot on φ1 (mode 0): sub-systems are {φ1, m1, t} and {φ1, φ2, m2}.
	space := tinySpace()
	cfg := DefaultConfig(5, 0, doublePendulumPairs)
	res, err := GenerateCtx(context.Background(), space, cfg, rand.New(rand.NewSource(84)), SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Pivot configs = 4 grid values of φ1.
	if got := len(res.PivotConfigs); got != 4 {
		t.Fatalf("pivot configs = %d, want 4", got)
	}
	// The sub-system whose modes exclude time must still produce valid
	// cells (time fixed at the default stamp).
	sub := res.Sub1
	if contains(sub.Modes, 4) {
		sub = res.Sub2
	}
	if contains(sub.Modes, 4) {
		t.Skip("both sub-systems contain time for this split")
	}
	if sub.Tensor.NNZ() == 0 {
		t.Fatal("time-free sub-system has no cells")
	}
}

func TestGenerateInvalidConfig(t *testing.T) {
	space := tinySpace()
	if _, err := GenerateCtx(context.Background(), space, Config{}, rand.New(rand.NewSource(85)), SimOptions{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestGenerateDeterministicGivenSeed(t *testing.T) {
	space := tinySpace()
	cfg := DefaultConfig(5, 4, doublePendulumPairs)
	cfg.FreeFrac = 0.5
	a, err := GenerateCtx(context.Background(), space, cfg, rand.New(rand.NewSource(86)), SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateCtx(context.Background(), space, cfg, rand.New(rand.NewSource(86)), SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Sub1.Tensor.NNZ() != b.Sub1.Tensor.NNZ() {
		t.Fatal("same seed produced different sub-ensembles")
	}
	for e := 0; e < a.Sub1.Tensor.NNZ(); e++ {
		ia, va := a.Sub1.Tensor.Entry(e)
		ib, vb := b.Sub1.Tensor.Entry(e)
		if va != vb {
			t.Fatal("same seed produced different values")
		}
		for k := range ia {
			if ia[k] != ib[k] {
				t.Fatal("same seed produced different coordinates")
			}
		}
	}
}

func TestGenerateMultiplePivots(t *testing.T) {
	// The general PF-formulation allows k > 1 pivot modes. With pivots
	// {t, phi1} the remaining three modes split 2/1.
	space := tinySpace()
	cfg := Config{
		Pivots:    []int{4, 0},
		Free1:     []int{1, 3},
		Free2:     []int{2},
		PivotFrac: 1,
		FreeFrac:  1,
	}
	res, err := GenerateCtx(context.Background(), space, cfg, rand.New(rand.NewSource(87)), SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Pivot configs = T × res = 3·4 = 12.
	if got := len(res.PivotConfigs); got != 12 {
		t.Fatalf("pivot configs = %d, want 12", got)
	}
	// Sub1 covers (t, phi1, phi2, m2): 3·4·4·4 = 192 cells.
	if got := res.Sub1.Tensor.NNZ(); got != 192 {
		t.Fatalf("sub1 NNZ = %d, want 192", got)
	}
	// Sub2 covers (t, phi1, m1): 3·4·4 = 48 cells.
	if got := res.Sub2.Tensor.NNZ(); got != 48 {
		t.Fatalf("sub2 NNZ = %d, want 48", got)
	}
	if res.Sub1.NumPivots != 2 || res.Sub2.NumPivots != 2 {
		t.Fatal("NumPivots wrong for k=2")
	}
	// Cells still match ground truth.
	y := space.GroundTruth()
	def := space.DefaultIndex()
	full := make([]int, 5)
	res.Sub2.Tensor.Each(func(idx []int, v float64) {
		for m := 0; m < 4; m++ {
			full[m] = def
		}
		full[4] = space.TimeSamples / 2
		for i, m := range res.Sub2.Modes {
			full[m] = idx[i]
		}
		want := y.Data[y.Shape.LinearIndex(full)]
		if math.Abs(want-v) > 1e-12 {
			t.Fatalf("k=2 sub cell %v = %v, truth %v", idx, v, want)
		}
	})
}
