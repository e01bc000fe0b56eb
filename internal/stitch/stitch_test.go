package stitch

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dynsys"
	"repro/internal/ensemble"
	"repro/internal/partition"
)

var doublePendulumPairs = [][2]int{{0, 2}, {1, 3}}

func tinyResult(t *testing.T, freeFrac float64, seed int64) *partition.Result {
	t.Helper()
	space := ensemble.NewSpace(dynsys.NewDoublePendulum(), 4, 3)
	cfg := partition.DefaultConfig(5, 4, doublePendulumPairs)
	cfg.FreeFrac = freeFrac
	res, err := partition.GenerateCtx(context.Background(), space, cfg, rand.New(rand.NewSource(seed)), partition.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestJoinFullDensitySize(t *testing.T) {
	res := tinyResult(t, 1, 90)
	j := Join(res)
	// P · E1 · E2 = 3 timestamps × 16 × 16 free combos.
	if got, want := j.NNZ(), 3*16*16; got != want {
		t.Fatalf("join NNZ = %d, want %d", got, want)
	}
	if !j.Shape.Equal(res.Space.Shape()) {
		t.Fatalf("join shape %v != space shape %v", j.Shape, res.Space.Shape())
	}
}

func TestJoinValuesAreAverages(t *testing.T) {
	res := tinyResult(t, 1, 91)
	j := Join(res)
	// Reconstruct the expected average for a handful of cells directly
	// from the sub-tensors. Sub modes: pivots first.
	sub1 := res.Sub1.Tensor.ToDense()
	sub2 := res.Sub2.Tensor.ToDense()
	cfg := res.Config
	count := 0
	j.Each(func(idx []int, v float64) {
		if count > 50 {
			return
		}
		count++
		i1 := make([]int, 3)
		i1[0] = idx[cfg.Pivots[0]]
		for i, m := range cfg.Free1 {
			i1[1+i] = idx[m]
		}
		i2 := make([]int, 3)
		i2[0] = idx[cfg.Pivots[0]]
		for i, m := range cfg.Free2 {
			i2[1+i] = idx[m]
		}
		want := (sub1.At(i1...) + sub2.At(i2...)) / 2
		if math.Abs(v-want) > 1e-12 {
			t.Fatalf("join cell %v = %v, want %v", idx, v, want)
		}
	})
}

func TestJoinEffectiveDensityBeatsUnion(t *testing.T) {
	// The core motivation (Figure 6): the join has far more cells than the
	// union of sub-ensemble cells, for the same simulation budget.
	res := tinyResult(t, 1, 92)
	j := Join(res)
	unionCells := res.Sub1.Tensor.NNZ() + res.Sub2.Tensor.NNZ()
	if j.NNZ() <= unionCells {
		t.Fatalf("join NNZ %d not larger than union %d", j.NNZ(), unionCells)
	}
}

func TestJoinReducedDensity(t *testing.T) {
	res := tinyResult(t, 0.25, 93)
	j := Join(res)
	// E = ceil(0.25·16) = 4 per side: P·E² = 3·16.
	if got, want := j.NNZ(), 3*4*4; got != want {
		t.Fatalf("join NNZ = %d, want %d", got, want)
	}
}

func TestZeroJoinFullDensityEqualsJoin(t *testing.T) {
	// At full sub-ensemble density there are no missing partners, so
	// zero-join and join coincide.
	res := tinyResult(t, 1, 94)
	j := Join(res)
	zj := ZeroJoin(res)
	if j.NNZ() != zj.NNZ() {
		t.Fatalf("zero-join NNZ %d != join NNZ %d at full density", zj.NNZ(), j.NNZ())
	}
	if math.Abs(j.Norm()-zj.Norm()) > 1e-12 {
		t.Fatal("zero-join values differ from join at full density")
	}
}

func TestZeroJoinDensityBoost(t *testing.T) {
	res := tinyResult(t, 0.25, 95)
	j := Join(res)
	zj := ZeroJoin(res)
	// Zero-join: matched P·E² plus 2·P·E·(F−E) half-cells.
	p, e, f := 3, 4, 16
	want := p*e*e + 2*p*e*(f-e)
	if zj.NNZ() != want {
		t.Fatalf("zero-join NNZ = %d, want %d", zj.NNZ(), want)
	}
	if zj.NNZ() <= j.NNZ() {
		t.Fatal("zero-join did not boost density")
	}
}

func TestZeroJoinHalfValues(t *testing.T) {
	res := tinyResult(t, 0.25, 96)
	zj := ZeroJoin(res)
	sub1 := res.Sub1.Tensor.ToDense()
	sub2 := res.Sub2.Tensor.ToDense()
	cfg := res.Config
	zj.Each(func(idx []int, v float64) {
		i1 := []int{idx[cfg.Pivots[0]], idx[cfg.Free1[0]], idx[cfg.Free1[1]]}
		i2 := []int{idx[cfg.Pivots[0]], idx[cfg.Free2[0]], idx[cfg.Free2[1]]}
		x1 := sub1.At(i1...)
		x2 := sub2.At(i2...)
		// Dense sub-tensors have 0 at unsampled coordinates; since real
		// simulation distances are almost surely nonzero, a 0 marks a
		// missing partner and the expected value is the zero-join average.
		want := (x1 + x2) / 2
		if math.Abs(v-want) > 1e-12 {
			t.Fatalf("zero-join cell %v = %v, want %v", idx, v, want)
		}
	})
}

func TestJoinDeterministic(t *testing.T) {
	res := tinyResult(t, 0.5, 97)
	a := Join(res)
	b := Join(res)
	if a.NNZ() != b.NNZ() {
		t.Fatal("join size varies between runs")
	}
	for e := 0; e < a.NNZ(); e++ {
		ia, va := a.Entry(e)
		ib, vb := b.Entry(e)
		if va != vb {
			t.Fatal("join entry values vary between runs")
		}
		for k := range ia {
			if ia[k] != ib[k] {
				t.Fatal("join entry order varies between runs")
			}
		}
	}
}

func TestJoinParameterPivot(t *testing.T) {
	// Pivot on a parameter mode (φ1): join must still cover all 5 modes.
	space := ensemble.NewSpace(dynsys.NewDoublePendulum(), 4, 3)
	cfg := partition.DefaultConfig(5, 0, doublePendulumPairs)
	res, err := partition.GenerateCtx(context.Background(), space, cfg, rand.New(rand.NewSource(98)), partition.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j := Join(res)
	if j.NNZ() == 0 {
		t.Fatal("empty join for parameter pivot")
	}
	// Every join cell agrees with the average of its sub-cells; just check
	// the shape and coordinate bounds here.
	if !j.Shape.Equal(space.Shape()) {
		t.Fatalf("join shape %v", j.Shape)
	}
}

func TestJoinApproximatesGroundTruth(t *testing.T) {
	// The stitched tensor should approximate Y far better than a guess of
	// zero: relative error below 1.
	res := tinyResult(t, 1, 99)
	j := Join(res).ToDense()
	y := res.Space.GroundTruth()
	relErr := j.Sub(y).Norm() / y.Norm()
	if relErr >= 1 {
		t.Fatalf("join relative error %v, want < 1", relErr)
	}
}

// TestSpecCheck: a spec is checked against the pair it claims to describe
// before Shard sees it — NewSpec's own passes, and every way a spec that
// crossed a process boundary can miss (a mode out of range, listed twice or
// not at all, a shape the sub-tensors do not have) is an error, where Shard
// would panic or index outside a tensor.
func TestSpecCheck(t *testing.T) {
	res := tinyResult(t, 0.5, 96)
	x1, x2 := res.Sub1.Tensor.Shape, res.Sub2.Tensor.Shape
	if err := NewSpec(res, true).Check(x1, x2); err != nil {
		t.Fatalf("NewSpec's spec rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Spec){
		"pivot out of range": func(s *Spec) { s.Pivots = []int{5} },
		"negative free mode": func(s *Spec) { s.Free1 = []int{-1, 2} },
		"mode listed twice":  func(s *Spec) { s.Free2 = []int{1, 0} },
		"mode not listed":    func(s *Spec) { s.Free2 = []int{1} },
		"no pivot":           func(s *Spec) { s.Pivots, s.Free1 = nil, []int{4, 0, 2} },
		"pivot size":         func(s *Spec) { s.Shape = append(s.Shape[:4:4], s.Shape[4]+1) },
		"free size":          func(s *Spec) { s.Shape = append([]int{s.Shape[0] - 1}, s.Shape[1:]...) },
		"short shape":        func(s *Spec) { s.Shape = s.Shape[:4] },
		"empty":              func(s *Spec) { *s = Spec{} },
	} {
		spec := NewSpec(res, false)
		mutate(&spec)
		if err := spec.Check(x1, x2); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
