package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dynsys"
	"repro/internal/ensemble"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/stitch"
	"repro/internal/tensor"
	"repro/internal/tucker"
)

var doublePendulumPairs = [][2]int{{0, 2}, {1, 3}}

func tinyPartition(t *testing.T, freeFrac float64, seed int64) *partition.Result {
	t.Helper()
	space := ensemble.NewSpace(dynsys.NewDoublePendulum(), 5, 4)
	cfg := partition.DefaultConfig(5, 4, doublePendulumPairs)
	cfg.FreeFrac = freeFrac
	res, err := partition.GenerateCtx(context.Background(), space, cfg, rand.New(rand.NewSource(seed)), partition.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRowSelectPicksHigherEnergy(t *testing.T) {
	u1 := mat.FromRows([][]float64{{3, 0}, {0, 0.1}})
	u2 := mat.FromRows([][]float64{{1, 1}, {2, 2}})
	out := RowSelect(u1, u2)
	// Row 0: ‖(3,0)‖ > ‖(1,1)‖ -> from u1. Row 1: ‖(0,0.1)‖ < ‖(2,2)‖ -> u2.
	if out.At(0, 0) != 3 || out.At(0, 1) != 0 {
		t.Fatalf("row 0 = %v", out.Row(0))
	}
	if out.At(1, 0) != 2 || out.At(1, 1) != 2 {
		t.Fatalf("row 1 = %v", out.Row(1))
	}
}

func TestRowSelectTieGoesToFirst(t *testing.T) {
	u1 := mat.FromRows([][]float64{{1, 0}})
	u2 := mat.FromRows([][]float64{{0, 1}})
	out := RowSelect(u1, u2)
	if out.At(0, 0) != 1 {
		t.Fatal("tie should keep u1's row (Algorithm 5 uses >=)")
	}
}

func TestRowSelectShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RowSelect shape mismatch did not panic")
		}
	}()
	RowSelect(mat.New(2, 2), mat.New(3, 2))
}

func TestDecomposeAllMethods(t *testing.T) {
	p := tinyPartition(t, 1, 110)
	ranks := tucker.UniformRanks(5, 3)
	for _, m := range Methods() {
		res, err := DecomposeCtx(context.Background(), p, Options{Method: m, Ranks: ranks})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if len(res.Factors) != 5 {
			t.Fatalf("%s: %d factors", m, len(res.Factors))
		}
		shape := p.Space.Shape()
		for mode, f := range res.Factors {
			wantRank := 3
			if shape[mode] < wantRank {
				wantRank = shape[mode]
			}
			if f.Rows != shape[mode] || f.Cols != wantRank {
				t.Fatalf("%s: factor %d dims %d×%d, want %d×%d", m, mode, f.Rows, f.Cols, shape[mode], wantRank)
			}
		}
		recon := res.Reconstruct()
		if !recon.Shape.Equal(shape) {
			t.Fatalf("%s: reconstruction shape %v", m, recon.Shape)
		}
		if recon.Norm() == 0 {
			t.Fatalf("%s: zero reconstruction", m)
		}
	}
}

func TestDecomposeRejectsBadOptions(t *testing.T) {
	p := tinyPartition(t, 1, 111)
	if _, err := DecomposeCtx(context.Background(), p, Options{Method: "bogus", Ranks: tucker.UniformRanks(5, 2)}); err == nil {
		t.Fatal("unknown method accepted")
	}
	if _, err := DecomposeCtx(context.Background(), p, Options{Method: AVG, Ranks: []int{2, 2}}); err == nil {
		t.Fatal("wrong rank count accepted")
	}
}

func TestDecomposeAccuracyBeatsConventional(t *testing.T) {
	// The paper's headline result (Table II): M2TD reconstruction is far
	// closer to the ground truth than HOSVD of a conventionally sampled
	// sparse ensemble with the same simulation budget.
	p := tinyPartition(t, 1, 112)
	space := p.Space
	y := space.GroundTruth()
	ranks := tucker.UniformRanks(5, 3)

	res, err := DecomposeCtx(context.Background(), p, Options{Method: SELECT, Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	m2tdErr := res.Reconstruct().Sub(y).Norm() / y.Norm()

	rng := rand.New(rand.NewSource(113))
	sims := ensemble.RandomSample(space, p.NumSims, rng)
	se, _, err := ensemble.EncodeCtx(context.Background(), space, sims, ensemble.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	convErr := tucker.HOSVD(se.Tensor, ranks).RelativeError(y)

	if m2tdErr >= convErr {
		t.Fatalf("M2TD error %v not better than conventional %v", m2tdErr, convErr)
	}
	if m2tdErr >= 1 {
		t.Fatalf("M2TD relative error %v >= 1", m2tdErr)
	}
}

func TestConcatEquivalentToExplicitConcatenation(t *testing.T) {
	// The Gram-sum optimisation must give the same pivot subspace as the
	// literal column-wise concatenation of the two matricizations.
	p := tinyPartition(t, 1, 114)
	i := 0 // pivot sub-mode
	r := 3
	g := mat.Add(tensor.ModeGramWorkers(p.Sub1.Tensor, i, 0), tensor.ModeGramWorkers(p.Sub2.Tensor, i, 0))
	uGram := mat.LeadingEigenvectors(g, r)

	m1 := tensor.Matricize(p.Sub1.Tensor.ToDense(), i)
	m2 := tensor.Matricize(p.Sub2.Tensor.ToDense(), i)
	cat := mat.New(m1.Rows, m1.Cols+m2.Cols)
	for row := 0; row < cat.Rows; row++ {
		copy(cat.Row(row), m1.Row(row))
		copy(cat.Row(row)[m1.Cols:], m2.Row(row))
	}
	uCat := mat.LeadingLeftSingularVectors(cat, r)

	// Compare projectors (columns defined up to sign).
	pGram := mat.MulTransB(uGram, uGram)
	pCat := mat.MulTransB(uCat, uCat)
	if !pGram.Equal(pCat, 1e-8) {
		t.Fatal("Gram-sum CONCAT subspace differs from explicit concatenation")
	}
}

// TestMethodsAgreeOnASharedPivot is a fusion invariant: when both
// sub-tensors carry the same pivot matricization, up to the order of its
// columns — here X₂ is X₁ with its free modes relabelled, (t, a, b) ↦
// (t, 4−b, a) on the two 5 × 5 free grids — the sides' pivot Grams and
// factors agree, so AVG, CONCAT and SELECT fuse to one pivot factor and
// the decompositions agree to 1e-12, at full and at reduced free density.
func TestMethodsAgreeOnASharedPivot(t *testing.T) {
	relabel := func(idx []int) []int { return []int{idx[0], 4 - idx[2], idx[1]} }
	for _, freeFrac := range []float64{1, 0.5} {
		p := tinyPartition(t, freeFrac, 118)
		x1, sub2 := p.Sub1.Tensor, *p.Sub2
		if !x1.Shape.Equal(sub2.Tensor.Shape) {
			t.Fatalf("sub-tensor shapes %v and %v: no relabelling maps one onto the other", x1.Shape, sub2.Tensor.Shape)
		}
		sub2.Tensor = tensor.NewSparse(x1.Shape)
		for e := 0; e < x1.NNZ(); e++ {
			idx, v := x1.Entry(e)
			sub2.Tensor.Append(relabel(idx), v)
		}
		shared := *p
		shared.Sub2, shared.Free2Configs = &sub2, nil
		for _, c := range p.Free1Configs {
			shared.Free2Configs = append(shared.Free2Configs, relabel(append([]int{0}, c...))[1:])
		}

		ranks := tucker.UniformRanks(5, 3)
		var want *Result
		for _, m := range Methods() {
			got, err := DecomposeFactored(&shared, Options{Method: m, Ranks: ranks})
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
				continue
			}
			label := fmt.Sprintf("free %v: %s vs %s", freeFrac, m, Methods()[0])
			requireClose(t, label+" core", got.Core, want.Core, 1e-12)
			for mode := range want.Factors {
				if !got.Factors[mode].Equal(want.Factors[mode], 1e-12) {
					t.Fatalf("%s: factor %d differs by more than 1e-12", label, mode)
				}
			}
		}
	}
}

func TestDecomposeZeroJoinOption(t *testing.T) {
	p := tinyPartition(t, 0.4, 115)
	ranks := tucker.UniformRanks(5, 2)
	plain, err := DecomposeCtx(context.Background(), p, Options{Method: SELECT, Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	zero, err := DecomposeCtx(context.Background(), p, Options{Method: SELECT, Ranks: ranks, ZeroJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	if zero.Join.NNZ() <= plain.Join.NNZ() {
		t.Fatalf("zero-join NNZ %d not larger than join %d", zero.Join.NNZ(), plain.Join.NNZ())
	}
}

func TestDecomposeCoreMatchesManualProjection(t *testing.T) {
	p := tinyPartition(t, 1, 116)
	ranks := tucker.UniformRanks(5, 2)
	res, err := DecomposeCtx(context.Background(), p, Options{Method: AVG, Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	j := stitch.Join(p)
	manual := tensor.MultiTTMSparse(j, tensor.TransposeAll(res.Factors))
	if !manual.Equal(res.Core, 1e-10) {
		t.Fatal("core differs from manual projection of the join tensor")
	}
}

// TestDecomposeTimingsPopulated: the phase split is the span tree's — core
// keeps no clock of its own. DecomposeCtx times factors, stitch and core;
// the join-free kernel opens no stitch span.
func TestDecomposeTimingsPopulated(t *testing.T) {
	p := tinyPartition(t, 1, 117)
	opts := Options{Method: SELECT, Ranks: tucker.UniformRanks(5, 2)}
	for _, tc := range []struct {
		name   string
		run    func(Options) error
		phases []string
	}{
		{"DecomposeCtx", func(o Options) error { _, err := DecomposeCtx(context.Background(), p, o); return err }, []string{"factors", "stitch", "core"}},
		{"DecomposeFactored", func(o Options) error { _, err := DecomposeFactored(p, o); return err }, []string{"factors", "core"}},
	} {
		root := obs.New(tc.name).Root()
		opts.Span = root
		if err := tc.run(opts); err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, c := range root.Children() {
			if c.Duration() <= 0 {
				t.Errorf("%s: phase %q took %v", tc.name, c.Name(), c.Duration())
			}
			names = append(names, c.Name())
		}
		if fmt.Sprint(names) != fmt.Sprint(tc.phases) {
			t.Errorf("%s: phase spans %v, want %v", tc.name, names, tc.phases)
		}
	}
}

func TestSelectFactorRowsComeFromInputs(t *testing.T) {
	// Every row of a SELECT-fused pivot factor equals the corresponding
	// row of one of the two sub-decomposition factors.
	p := tinyPartition(t, 1, 118)
	r := 3
	u1 := tensor.LeadingModeVectorsWorkers(p.Sub1.Tensor, 0, r, 0)
	u2 := tensor.LeadingModeVectorsWorkers(p.Sub2.Tensor, 0, r, 0)
	fused := RowSelect(u1, u2)
	for i := 0; i < fused.Rows; i++ {
		from1 := true
		from2 := true
		for c := 0; c < fused.Cols; c++ {
			if math.Abs(fused.At(i, c)-u1.At(i, c)) > 1e-15 {
				from1 = false
			}
			if math.Abs(fused.At(i, c)-u2.At(i, c)) > 1e-15 {
				from2 = false
			}
		}
		if !from1 && !from2 {
			t.Fatalf("fused row %d matches neither input", i)
		}
	}
}

func TestMethodsOrder(t *testing.T) {
	ms := Methods()
	if len(ms) != 3 || ms[0] != AVG || ms[1] != CONCAT || ms[2] != SELECT {
		t.Fatalf("Methods() = %v", ms)
	}
}

func TestDecomposeMultiplePivots(t *testing.T) {
	// M2TD over a k=2 pivot partition: the fused factor set must still
	// cover every original mode and reconstruct sensibly.
	space := ensemble.NewSpace(dynsys.NewDoublePendulum(), 5, 4)
	cfg := partition.Config{
		Pivots:    []int{4, 0},
		Free1:     []int{1, 3},
		Free2:     []int{2},
		PivotFrac: 1,
		FreeFrac:  1,
	}
	p, err := partition.GenerateCtx(context.Background(), space, cfg, rand.New(rand.NewSource(119)), partition.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Methods() {
		res, err := DecomposeCtx(context.Background(), p, Options{Method: m, Ranks: tucker.UniformRanks(5, 2)})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		for mode, f := range res.Factors {
			if f == nil {
				t.Fatalf("%s: mode %d has no factor", m, mode)
			}
		}
		y := space.GroundTruth()
		relErr := res.Reconstruct().Sub(y).Norm() / y.Norm()
		if relErr >= 1 {
			t.Fatalf("%s: k=2 relative error %v", m, relErr)
		}
	}
}

func TestModeLoadingsSortedAndComplete(t *testing.T) {
	p := tinyPartition(t, 1, 126)
	res, err := DecomposeCtx(context.Background(), p, Options{Method: SELECT, Ranks: tucker.UniformRanks(5, 2)})
	if err != nil {
		t.Fatal(err)
	}
	for mode := 0; mode < 5; mode++ {
		loadings, err := res.ModeLoadings(mode, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(loadings) != p.Space.Shape()[mode] {
			t.Fatalf("mode %d: %d loadings", mode, len(loadings))
		}
		for i := 1; i < len(loadings); i++ {
			if loadings[i].Weight > loadings[i-1].Weight+1e-15 {
				t.Fatalf("mode %d: loadings not sorted", mode)
			}
		}
		seen := map[int]bool{}
		for _, l := range loadings {
			if l.Weight < 0 || seen[l.Index] {
				t.Fatalf("mode %d: bad loading %+v", mode, l)
			}
			seen[l.Index] = true
		}
	}
	if _, err := res.ModeLoadings(9, 0); err == nil {
		t.Fatal("out-of-range mode accepted")
	}
	if _, err := res.ModeLoadings(0, 9); err == nil {
		t.Fatal("out-of-range component accepted")
	}
}

func TestComponentStrengths(t *testing.T) {
	p := tinyPartition(t, 1, 127)
	res, err := DecomposeCtx(context.Background(), p, Options{Method: SELECT, Ranks: tucker.UniformRanks(5, 2)})
	if err != nil {
		t.Fatal(err)
	}
	strengths, err := res.ComponentStrengths(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(strengths) != res.Core.Shape[0] {
		t.Fatalf("%d strengths", len(strengths))
	}
	// Sum of squared slice norms equals the squared core norm.
	var total float64
	for _, s := range strengths {
		total += s * s
	}
	want := res.Core.Norm()
	if math.Abs(math.Sqrt(total)-want) > 1e-9 {
		t.Fatalf("slice energies %v inconsistent with core norm %v", math.Sqrt(total), want)
	}
	if _, err := res.ComponentStrengths(9); err == nil {
		t.Fatal("out-of-range mode accepted")
	}
}

func TestEntityEnergy(t *testing.T) {
	p := tinyPartition(t, 1, 128)
	res, err := DecomposeCtx(context.Background(), p, Options{Method: SELECT, Ranks: tucker.UniformRanks(5, 2)})
	if err != nil {
		t.Fatal(err)
	}
	energy, err := res.EntityEnergy(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(energy) != p.Space.Shape()[0] {
		t.Fatalf("%d energies", len(energy))
	}
	for _, e := range energy {
		if e < 0 {
			t.Fatalf("negative energy %v", e)
		}
	}
	if _, err := res.EntityEnergy(-1); err == nil {
		t.Fatal("negative mode accepted")
	}
}

// TestCampaignGramsAllocateUnderAWordPerCell: a campaign's factor step
// takes every Gram over the fibre runs partition laid out, compiling and
// copying nothing per cell. Under every method it allocates less than one
// word per cell its Grams read.
func TestCampaignGramsAllocateUnderAWordPerCell(t *testing.T) {
	space := ensemble.NewSpace(dynsys.NewDoublePendulum(), 16, 16)
	cfg := partition.DefaultConfig(5, 4, doublePendulumPairs)
	p, err := partition.GenerateCtx(context.Background(), space, cfg, rand.New(rand.NewSource(5)), partition.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cells := 0 // one Gram per mode of each sub-tensor
	for _, x := range []*tensor.Sparse{p.Sub1.Tensor, p.Sub2.Tensor} {
		cells += x.NNZ() * x.Order()
	}
	ranks := tucker.UniformRanks(5, 3)
	for _, m := range Methods() {
		buildFactors(p, m, ranks, 1, nil) // warm the Grams' scratch pool
		var before, after runtime.MemStats
		const calls = 5
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			buildFactors(p, m, ranks, 1, nil)
		}
		runtime.ReadMemStats(&after)
		if perCall := (after.TotalAlloc - before.TotalAlloc) / calls; perCall >= uint64(8*cells) {
			t.Errorf("%s: the factor step allocates %d B over Grams of %d cells, want under %d", m, perCall, cells, 8*cells)
		}
	}
}
