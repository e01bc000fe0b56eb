package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dynsys"
	"repro/internal/ensemble"
	"repro/internal/partition"
	"repro/internal/stitch"
	"repro/internal/tensor"
	"repro/internal/tucker"
)

// withHoles is p with each sub-tensor rebuilt from the cells keep selects
// (side 1 or 2, the cell's pivot key, its entry number). The copies carry
// no quarantine flag.
func withHoles(p *partition.Result, keep func(side, key, e int) bool) *partition.Result {
	spec := stitch.NewSpec(p, false)
	out, sub1, sub2 := *p, *p.Sub1, *p.Sub2
	for side, sub := range []*partition.SubEnsemble{&sub1, &sub2} {
		x := sub.Tensor
		sub.Tensor = tensor.NewSparse(x.Shape)
		for e := 0; e < x.NNZ(); e++ {
			if idx, v := x.Entry(e); keep(side+1, spec.PivotKey(idx), e) {
				sub.Tensor.Append(idx, v)
			}
		}
	}
	out.Sub1, out.Sub2 = &sub1, &sub2
	return &out
}

// requireClose fails unless got is within tol of want, relative to want's
// largest magnitude.
func requireClose(t *testing.T, label string, got, want *tensor.Dense, tol float64) {
	t.Helper()
	if !got.Shape.Equal(want.Shape) {
		t.Fatalf("%s: shape %v, want %v", label, got.Shape, want.Shape)
	}
	var diff, scale float64
	for i, v := range want.Data {
		if math.IsNaN(got.Data[i]) || math.IsInf(got.Data[i], 0) {
			t.Fatalf("%s: non-finite value %v", label, got.Data[i])
		}
		diff = math.Max(diff, math.Abs(got.Data[i]-v))
		scale = math.Max(scale, math.Abs(v))
	}
	if diff > tol*math.Max(scale, 1e-300) {
		t.Fatalf("%s: differs by %g relative to %g", label, diff/scale, scale)
	}
}

// TestJoinFreeKernelMatchesStitchOracle is the identity the one route
// rests on, as a property: for duplicate-free pairs with cell-level holes,
// pivot groups missing on one side, or no configuration lists — time,
// parameter and two-pivot partitions, join and zero-join, one shard and
// three — every shard's partial, assembled, is that shard's stitched join
// projected through the same factors (tensor.MultiTTMSparse of
// stitch.Spec.Shard), and the shards' sum is DecomposeFactored's core.
func TestJoinFreeKernelMatchesStitchOracle(t *testing.T) {
	space := ensemble.NewSpace(dynsys.NewDoublePendulum(), 5, 4)
	configs := map[string]partition.Config{
		"time":      partition.DefaultConfig(5, 4, doublePendulumPairs),
		"parameter": partition.DefaultConfig(5, 0, doublePendulumPairs),
		"two-pivot": {Pivots: []int{4, 1}, Free1: []int{3}, Free2: []int{0, 2}, PivotFrac: 1},
	}
	rng := rand.New(rand.NewSource(400))
	for name, cfg := range configs {
		for _, free := range []float64{1, 0.5} {
			cfg.FreeFrac = free
			intact, err := partition.GenerateCtx(context.Background(), space, cfg, rand.New(rand.NewSource(401)), partition.SimOptions{})
			if err != nil {
				t.Fatal(err)
			}
			// Factors of the intact pair: the identity holds for any.
			ranks := tucker.UniformRanks(5, 2)
			fs, err := DecomposeFactored(intact, Options{Method: SELECT, Ranks: ranks})
			if err != nil {
				t.Fatal(err)
			}
			factors := fs.Factors
			for _, thinning := range []float64{0, 0.1, 0.5, 0.9} {
				// Side 1 loses one whole pivot group, side 2 another, and
				// both a random share of their cells.
				gone1 := rng.Intn(4)
				gone2 := (gone1 + 1) % 4
				drops := make(map[[2]int]bool)
				holes := withHoles(intact, func(side, key, e int) bool {
					if side == 1 && key == gone1 || side == 2 && key == gone2 {
						return false
					}
					drops[[2]int{side, e}] = rng.Float64() < thinning
					return !drops[[2]int{side, e}]
				})
				unlisted := *holes
				unlisted.PivotConfigs, unlisted.Free1Configs, unlisted.Free2Configs = nil, nil, nil
				for lists, p := range map[string]*partition.Result{"listed": holes, "unlisted": &unlisted} {
					for _, zero := range []bool{false, true} {
						label := fmt.Sprintf("%s E=%g thinned=%g %s zero=%v", name, free, thinning, lists, zero)
						spec, grid := stitch.NewSpec(p, zero), SampledOf(p)
						x1, x2 := p.Sub1.Tensor, p.Sub2.Tensor
						for _, shards := range []int{1, 3} {
							parts := make([]Partial, shards)
							for s := range parts {
								parts[s] = ProjectShard(spec, grid, x1, x2, factors, s, shards, 2)
								got := FactoredCore(parts[s:s+1], nil).G
								want := tensor.MultiTTMSparse(spec.Shard(x1, x2, s, shards), tensor.TransposeAll(factors))
								requireClose(t, fmt.Sprintf("%s shard %d of %d", label, s, shards), got, want, 1e-9)
								if zero && parts[s].Holey != 0 {
									t.Fatalf("%s shard %d of %d: a zero-join holey group", label, s, shards)
								}
							}
							total := FactoredCore(parts, nil)
							want := tensor.MultiTTMSparse(spec.Shard(x1, x2, 0, 1), tensor.TransposeAll(factors))
							requireClose(t, fmt.Sprintf("%s, %d shards summed", label, shards), total.G, want, 1e-9)
							if !zero && total.Holey == 0 {
								t.Fatalf("%s: no holey group counted on a pair that lost two", label)
							}
						}
						whole, err := DecomposeFactored(p, Options{Method: SELECT, Ranks: ranks, ZeroJoin: zero})
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						ref, err := DecomposeCtx(context.Background(), p, Options{Method: SELECT, Ranks: ranks, ZeroJoin: zero})
						if err != nil {
							t.Fatal(err)
						}
						requireClose(t, label+": DecomposeFactored vs DecomposeCtx", whole.Core, ref.Core, 1e-9)
						if cells := p.JoinCells(zero); cells != ref.Join.NNZ() {
							t.Fatalf("%s: JoinCells %d, stitched join %d", label, cells, ref.Join.NNZ())
						}
					}
				}
			}
		}
	}
}

// TestJoinFreeUniformSides: a side that lost whole free configurations —
// simulations, at every pivot — holds the same configurations at every
// sampled pivot, so its census gives one cκ row for every group. Beside a
// whole side, a uniform one and a side thinned cell by cell (whose cκ is
// its mask's projection), every shard's partial is that shard's stitched
// join projected, and the lost simulations make holey groups.
func TestJoinFreeUniformSides(t *testing.T) {
	p := tinyPartition(t, 1, 187)
	ranks := tucker.UniformRanks(5, 2)
	fs, err := DecomposeFactored(p, Options{Method: SELECT, Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	factors := fs.Factors
	// lostSim drops the free configurations of side whose coordinates sum
	// to 1 mod 4, at every pivot.
	lostSim := func(side, e int) bool {
		x := []*tensor.Sparse{p.Sub1.Tensor, p.Sub2.Tensor}[side-1]
		idx, _ := x.Entry(e)
		return (idx[1]+idx[2])%4 == 1
	}
	pairs := map[string]func(side, key, e int) bool{
		"uniform and whole":   func(side, _, e int) bool { return side == 2 || !lostSim(side, e) },
		"uniform and uniform": func(side, _, e int) bool { return !lostSim(side, e) },
		"uniform and thinned": func(side, _, e int) bool { return side == 1 && !lostSim(side, e) || side == 2 && e%5 != 0 },
	}
	for name, keep := range pairs {
		q := withHoles(p, keep)
		x1, x2 := q.Sub1.Tensor, q.Sub2.Tensor
		if _, held := takeCensus(x1, 1, len(q.PivotConfigs)); held == nil {
			t.Fatalf("%s: side 1 lost whole simulations and is not uniform", name)
		}
		if _, held := takeCensus(x2, 1, len(q.PivotConfigs)); (held == nil) != (name == "uniform and thinned") {
			t.Fatalf("%s: side 2 uniform = %v", name, held != nil)
		}
		for _, zero := range []bool{false, true} {
			spec, grid := stitch.NewSpec(q, zero), SampledOf(q)
			for _, shards := range []int{1, 3} {
				label := fmt.Sprintf("%s zero=%v shards=%d", name, zero, shards)
				parts := make([]Partial, shards)
				for s := range parts {
					parts[s] = ProjectShard(spec, grid, x1, x2, factors, s, shards, 2)
					want := tensor.MultiTTMSparse(spec.Shard(x1, x2, s, shards), tensor.TransposeAll(factors))
					requireClose(t, fmt.Sprintf("%s shard %d", label, s), parts[s].G, want, 1e-9)
				}
				// Side 1 lost simulations at every pivot: all four groups are
				// holey under plain join, none under zero-join.
				if total, want := FactoredCore(parts, nil), map[bool]int{false: 4, true: 0}[zero]; total.Holey != want {
					t.Fatalf("%s: %d holey groups, want %d", label, total.Holey, want)
				}
			}
		}
	}
}
