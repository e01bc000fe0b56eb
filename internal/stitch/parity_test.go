package stitch

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dynsys"
	"repro/internal/ensemble"
	"repro/internal/partition"
	"repro/internal/tensor"
)

// paramPivotResult partitions with a parameter-mode pivot (φ1) instead of
// the timestamp default.
func paramPivotResult(t *testing.T, seed int64) *partition.Result {
	t.Helper()
	space := ensemble.NewSpace(dynsys.NewDoublePendulum(), 4, 3)
	cfg := partition.DefaultConfig(5, 0, doublePendulumPairs)
	cfg.FreeFrac = 0.5
	res, err := partition.GenerateCtx(context.Background(), space, cfg, rand.New(rand.NewSource(seed)), partition.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// bitsEqualSparse asserts identical COO storage: entry order, indices, and
// values, bit for bit.
func bitsEqualSparse(t *testing.T, name string, a, b *tensor.Sparse) {
	t.Helper()
	if !a.Shape.Equal(b.Shape) {
		t.Fatalf("%s: shape %v vs %v", name, a.Shape, b.Shape)
	}
	if a.NNZ() != b.NNZ() {
		t.Fatalf("%s: NNZ %d vs %d", name, a.NNZ(), b.NNZ())
	}
	for i, v := range a.Idx {
		if v != b.Idx[i] {
			t.Fatalf("%s: Idx[%d] = %d vs %d (entry order differs)", name, i, v, b.Idx[i])
		}
	}
	for i, v := range a.Vals {
		if v != b.Vals[i] {
			t.Fatalf("%s: Vals[%d] = %v vs %v (not bit-identical)", name, i, v, b.Vals[i])
		}
	}
}

// sortedCells lists x's cells in lexicographic index order (value bits
// break ties between duplicates).
func sortedCells(x *tensor.Sparse) (idx [][]int, vals []float64) {
	order := make([]int, x.NNZ())
	for e := range order {
		order[e] = e
	}
	slices.SortFunc(order, func(a, b int) int {
		ia, va := x.Entry(a)
		ib, vb := x.Entry(b)
		return cmp.Or(slices.Compare(ia, ib), cmp.Compare(math.Float64bits(va), math.Float64bits(vb)))
	})
	for _, e := range order {
		i, v := x.Entry(e)
		idx, vals = append(idx, i), append(vals, v)
	}
	return idx, vals
}

// sameCells asserts a and b hold the same cells — same indices, same
// value bits — in whatever storage order: the comparison for inputs whose
// storage is not lexicographic within a pivot group, where the kernel's
// frozen order and the hash-join's storage order legitimately differ.
func sameCells(t *testing.T, name string, a, b *tensor.Sparse) {
	t.Helper()
	if !a.Shape.Equal(b.Shape) {
		t.Fatalf("%s: shape %v vs %v", name, a.Shape, b.Shape)
	}
	if a.NNZ() != b.NNZ() {
		t.Fatalf("%s: %d cells vs %d", name, a.NNZ(), b.NNZ())
	}
	ai, av := sortedCells(a)
	bi, bv := sortedCells(b)
	for e := range ai {
		if !slices.Equal(ai[e], bi[e]) || math.Float64bits(av[e]) != math.Float64bits(bv[e]) {
			t.Fatalf("%s: sorted cell %d is %v = %v vs %v = %v", name, e, ai[e], av[e], bi[e], bv[e])
		}
	}
}

// TestSortMergeJoinParity checks that Join emits COO storage identical to
// the retained hash-join reference across randomized time-pivot ensembles
// of varying density — the layout every materialised campaign's core
// inherits its summation order from.
func TestSortMergeJoinParity(t *testing.T) {
	for _, freeFrac := range []float64{0.15, 0.25, 0.5, 0.75, 1} {
		for seed := int64(200); seed < 205; seed++ {
			res := tinyResult(t, freeFrac, seed)
			j := Join(res)
			bitsEqualSparse(t, "Join", j, stitchHashJoin(res, false))
			exactAlloc(t, "Join", j)
		}
	}
}

// TestSortMergeZeroJoinParity does the same for ZeroJoin, whose emission
// order additionally interleaves zero-join extensions (Generate aligns the
// two sides' pivot samples, so no group is one-sided here).
func TestSortMergeZeroJoinParity(t *testing.T) {
	for _, freeFrac := range []float64{0.15, 0.25, 0.5, 1} {
		for seed := int64(300); seed < 305; seed++ {
			res := tinyResult(t, freeFrac, seed)
			j := ZeroJoin(res)
			bitsEqualSparse(t, "ZeroJoin", j, stitchHashJoin(res, true))
			exactAlloc(t, "ZeroJoin", j)
		}
	}
}

// TestSortMergeParityParameterPivot covers the parameter-mode pivot
// layout, where the free modes are split differently than the
// timestamp-pivot default and a pivot group's storage is not
// lexicographic: the same cells as the reference, in the kernel's order.
func TestSortMergeParityParameterPivot(t *testing.T) {
	res := paramPivotResult(t, 101)
	j, z := Join(res), ZeroJoin(res)
	sameCells(t, "Join/param-pivot", j, stitchHashJoin(res, false))
	exactAlloc(t, "Join/param-pivot", j)
	sameCells(t, "ZeroJoin/param-pivot", z, stitchHashJoin(res, true))
	exactAlloc(t, "ZeroJoin/param-pivot", z)
}

// exactAlloc asserts the join's COO arrays were preallocated to exactly
// the emitted cell count: the sizing pass counted matched pairs and
// zero-join extensions alike, so neither slice regrew or over-reserved.
func exactAlloc(t *testing.T, name string, j *tensor.Sparse) {
	t.Helper()
	if cap(j.Vals) != len(j.Vals) || cap(j.Idx) != len(j.Idx) {
		t.Fatalf("%s: Vals len %d cap %d, Idx len %d cap %d; want cap == len",
			name, len(j.Vals), cap(j.Vals), len(j.Idx), cap(j.Idx))
	}
}

// filterSub rebuilds a sub-ensemble's tensor from the entries keep
// accepts, in storage order.
func filterSub(sub *partition.SubEnsemble, keep func(idx []int) bool) {
	out := tensor.NewSparse(sub.Tensor.Shape)
	sub.Tensor.Each(func(idx []int, v float64) {
		if keep(idx) {
			out.Append(idx, v)
		}
	})
	sub.Tensor = out
}

// raggedResult thins a generated partition into the shapes Generate never
// produces: pivot group 0 survives in sub-ensemble 2 only, pivot group 2
// in sub-ensemble 1 only, and the shared group loses a different random
// share of its entries on each side (unequal E₁ and E₂).
func raggedResult(t *testing.T, seed int64) *partition.Result {
	t.Helper()
	res := tinyResult(t, 0.75, seed)
	rng := rand.New(rand.NewSource(seed))
	filterSub(res.Sub1, func(idx []int) bool { return idx[0] != 0 && rng.Float64() < 0.8 })
	filterSub(res.Sub2, func(idx []int) bool { return idx[0] != 2 && rng.Float64() < 0.4 })
	return res
}

// TestBlockEmissionParityRaggedGroups runs the block-template emission
// against the hash-join reference on unequal group sizes and one-sided
// pivot groups, for both variants, and checks the exact preallocation.
// The zero-join as a cell list, not a layout: the reference emits
// sub-2-only groups last, the kernel in key order.
func TestBlockEmissionParityRaggedGroups(t *testing.T) {
	for seed := int64(400); seed < 405; seed++ {
		res := raggedResult(t, seed)
		if n1, n2 := res.Sub1.Tensor.NNZ(), res.Sub2.Tensor.NNZ(); n1 == 0 || n2 == 0 || n1 == n2 {
			t.Fatalf("seed %d: degenerate ragged partition (%d, %d entries)", seed, n1, n2)
		}
		j := Join(res)
		bitsEqualSparse(t, "Join/ragged", j, stitchHashJoin(res, false))
		exactAlloc(t, "Join/ragged", j)
		z := ZeroJoin(res)
		sameCells(t, "ZeroJoin/ragged", z, stitchHashJoin(res, true))
		exactAlloc(t, "ZeroJoin/ragged", z)
		// The one-sided groups exist: they reach the zero-join only.
		if z.NNZ() <= j.NNZ() {
			t.Fatalf("seed %d: zero-join added no cells (%d vs %d)", seed, z.NNZ(), j.NNZ())
		}
	}
}

// TestBlockEmissionParityQuarantine: a divergent cell quarantined at
// ingest (ensemble.SimStats.Keep) from inside the shared pivot group
// leaves a hole in the middle of its emission blocks. The join stitches
// around it — the hash-join reference's cells on the same inputs — and
// holds no non-finite value.
func TestBlockEmissionParityQuarantine(t *testing.T) {
	for _, zero := range []bool{false, true} {
		res := raggedResult(t, 410)
		// The last sub-2 entry of the shared pivot group (1): it sits
		// inside every matched block of that group.
		sub2, poisoned := res.Sub2.Tensor, -1
		for e := sub2.NNZ() - 1; e >= 0 && poisoned < 0; e-- {
			if idx, _ := sub2.Entry(e); idx[0] == 1 {
				poisoned = e
			}
		}
		in := tensor.NewSparse(sub2.Shape)
		var stats ensemble.SimStats
		for e := range sub2.Vals {
			idx, v := sub2.Entry(e)
			if e == poisoned {
				v = math.NaN()
			}
			if stats.Keep(v) {
				in.Append(idx, v)
			}
		}
		if stats.QuarantinedCells != 1 || in.NNZ() != sub2.NNZ()-1 {
			t.Fatalf("ingest quarantined %d cells, want the divergent one", stats.QuarantinedCells)
		}
		res.Sub2.Tensor = in

		got := Join(res)
		if zero {
			got = ZeroJoin(res)
		}
		sameCells(t, "quarantined join", got, stitchHashJoin(res, zero))
		for _, v := range got.Vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("zero=%v: the join holds %v", zero, v)
			}
		}
	}
}
