package increment

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dynsys"
	"repro/internal/ensemble"
	"repro/internal/partition"
	"repro/internal/tensor"
	"repro/internal/tucker"
)

var doublePendulumPairs = [][2]int{{0, 2}, {1, 3}}

// partial generates a reduced-density partition to leave room for growth.
func partial(t testing.TB, freeFrac float64, seed int64) *partition.Result {
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

func TestGramsMatchBatchAfterAbsorb(t *testing.T) {
	p := partial(t, 1, 170)
	tr := New(p)
	for sub, st := range map[*subState]*partition.SubEnsemble{tr.sub1: p.Sub1, tr.sub2: p.Sub2} {
		for n, got := range sub.grams {
			want := tensor.ModeGramWorkers(st.Tensor, n, 0)
			if !got.Equal(want, 1e-9) {
				t.Fatalf("sub %v mode %d: incremental Gram differs from batch", sub.modes, n)
			}
		}
	}
}

func TestGramsStayExactUnderAppends(t *testing.T) {
	p := partial(t, 0.5, 171)
	tr := New(p)
	// Append synthetic cells at unused coordinates.
	shape := p.Sub1.Tensor.Shape
	rng := rand.New(rand.NewSource(172))
	for i := 0; i < 25; i++ {
		idx := []int{rng.Intn(shape[0]), rng.Intn(shape[1]), rng.Intn(shape[2])}
		if err := tr.AppendCell(1, idx, rng.NormFloat64()); err != nil {
			t.Fatal(err)
		}
	}
	for n, got := range tr.sub1.grams {
		want := tensor.ModeGramWorkers(tr.sub1.tensor, n, 0)
		if !got.Equal(want, 1e-9) {
			t.Fatalf("mode %d: Gram drifted after appends", n)
		}
	}
}

func TestDecomposeMatchesBatchM2TD(t *testing.T) {
	p := partial(t, 1, 173)
	tr := New(p)
	ranks := tucker.UniformRanks(5, 3)
	for _, zero := range []bool{false, true} {
		for _, m := range core.Methods() {
			opts := core.Options{Method: m, Ranks: ranks, ZeroJoin: zero}
			inc, err := tr.Decompose(opts)
			if err != nil {
				t.Fatalf("%s: %v", m, err)
			}
			batch, err := core.DecomposeFactored(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !inc.Core.Equal(batch.Core, 1e-8) {
				t.Fatalf("%s zero=%v: incremental core differs from batch", m, zero)
			}
			for mode := range inc.Factors {
				if !inc.Factors[mode].Equal(batch.Factors[mode], 1e-8) {
					t.Fatalf("%s zero=%v: factor %d differs from batch", m, zero, mode)
				}
			}
		}
	}
}

// TestAppendAtStoredIndexAdds: a cell appended where one is stored adds to
// it, in the core as in the Grams — the decomposition is the batch one of
// the summed ensemble.
func TestAppendAtStoredIndexAdds(t *testing.T) {
	p := partial(t, 1, 177)
	tr := New(p)
	idx := p.Sub1.Tensor.Idx[:p.Sub1.Tensor.Order()]
	if err := tr.AppendCell(1, idx, p.Sub1.Tensor.Vals[0]); err != nil {
		t.Fatal(err)
	}
	summed := *p
	summed.Sub1 = &partition.SubEnsemble{Modes: p.Sub1.Modes, NumPivots: p.Sub1.NumPivots, Tensor: p.Sub1.Tensor.Clone()}
	summed.Sub1.Tensor.Vals[0] *= 2
	opts := core.Options{Method: core.CONCAT, Ranks: tucker.UniformRanks(5, 3)}
	inc, err := tr.Decompose(opts)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := core.DecomposeFactored(&summed, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !inc.Core.Equal(batch.Core, 1e-8) {
		t.Fatal("core of a duplicated cell differs from the batch core of the summed ensemble")
	}
}

func TestGrowthImprovesAccuracy(t *testing.T) {
	// Streaming scenario: start from a 30% sub-ensemble, grow to full
	// density, and verify the refreshed decomposition improves.
	space := ensemble.NewSpace(dynsys.NewDoublePendulum(), 5, 4)
	cfg := partition.DefaultConfig(5, 4, doublePendulumPairs)
	cfg.FreeFrac = 0.3
	pPartial, err := partition.GenerateCtx(context.Background(), space, cfg, rand.New(rand.NewSource(174)), partition.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfgFull := cfg
	cfgFull.FreeFrac = 1
	pFull, err := partition.GenerateCtx(context.Background(), space, cfgFull, rand.New(rand.NewSource(174)), partition.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}

	tr := New(pPartial)
	ranks := tucker.UniformRanks(5, 2)
	before, err := tr.Decompose(core.Options{Method: core.SELECT, Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}

	// Stream in all full-density cells the partial ensemble is missing.
	have := map[int]bool{}
	tr.sub1.tensor.Each(func(idx []int, v float64) {
		have[tr.sub1.tensor.Shape.LinearIndex(idx)] = true
	})
	pFull.Sub1.Tensor.Each(func(idx []int, v float64) {
		if !have[pFull.Sub1.Tensor.Shape.LinearIndex(idx)] {
			if err := tr.AppendCell(1, idx, v); err != nil {
				t.Fatal(err)
			}
		}
	})
	have = map[int]bool{}
	tr.sub2.tensor.Each(func(idx []int, v float64) {
		have[tr.sub2.tensor.Shape.LinearIndex(idx)] = true
	})
	pFull.Sub2.Tensor.Each(func(idx []int, v float64) {
		if !have[pFull.Sub2.Tensor.Shape.LinearIndex(idx)] {
			if err := tr.AppendCell(2, idx, v); err != nil {
				t.Fatal(err)
			}
		}
	})

	after, err := tr.Decompose(core.Options{Method: core.SELECT, Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	y := space.GroundTruth()
	errBefore := before.Reconstruct().Sub(y).Norm() / y.Norm()
	errAfter := after.Reconstruct().Sub(y).Norm() / y.Norm()
	if errAfter >= errBefore {
		t.Fatalf("growth did not improve accuracy: %v -> %v", errBefore, errAfter)
	}
	// And the grown tracker matches the batch full-density result.
	batch, err := core.DecomposeCtx(context.Background(), pFull, core.Options{Method: core.SELECT, Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	if !after.Core.Equal(batch.Core, 1e-8) {
		t.Fatal("grown tracker core differs from batch full-density core")
	}
}

func TestAppendCellValidation(t *testing.T) {
	p := partial(t, 1, 175)
	tr := New(p)
	if err := tr.AppendCell(3, []int{0, 0, 0}, 1); err == nil {
		t.Fatal("invalid sub-ensemble accepted")
	}
	for _, v := range []float64{math.NaN(), math.Inf(-1)} {
		if err := tr.AppendCell(1, []int{0, 0, 0}, v); err == nil {
			t.Fatalf("value %v accepted", v)
		}
	}
	if c1, _ := tr.CellCounts(); c1 != p.Sub1.Tensor.NNZ() {
		t.Fatalf("a refused cell was stored: %d cells, want %d", c1, p.Sub1.Tensor.NNZ())
	}
	if _, err := tr.Decompose(core.Options{Method: "nope", Ranks: tucker.UniformRanks(5, 2)}); err == nil {
		t.Fatal("invalid method accepted")
	}
	if _, err := tr.Decompose(core.Options{Method: core.AVG, Ranks: []int{1}}); err == nil {
		t.Fatal("invalid ranks accepted")
	}
}

func TestCellCounts(t *testing.T) {
	p := partial(t, 1, 176)
	tr := New(p)
	c1, c2 := tr.CellCounts()
	if c1 != p.Sub1.Tensor.NNZ() || c2 != p.Sub2.Tensor.NNZ() {
		t.Fatalf("CellCounts = %d, %d", c1, c2)
	}
}

// BenchmarkIncrementalAppend measures streaming Gram maintenance per
// appended cell.
func BenchmarkIncrementalAppend(b *testing.B) {
	part := partial(b, 1, 1)
	tr := New(part)
	shape := part.Sub1.Tensor.Shape
	rng := rand.New(rand.NewSource(1))
	idx := make([]int, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := range idx {
			idx[k] = rng.Intn(shape[k])
		}
		if err := tr.AppendCell(1, idx, rng.NormFloat64()); err != nil {
			b.Fatal(err)
		}
	}
}
