package core

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/dynsys"
	"repro/internal/ensemble"
	"repro/internal/partition"
	"repro/internal/stitch"
	"repro/internal/tucker"
)

func TestFactoredMatchesJoinBased(t *testing.T) {
	// The factored core must equal the join-materialising core exactly,
	// for every fusion method, at full density.
	p := tinyPartition(t, 1, 180)
	ranks := tucker.UniformRanks(5, 3)
	for _, m := range Methods() {
		ref, err := DecomposeCtx(context.Background(), p, Options{Method: m, Ranks: ranks})
		if err != nil {
			t.Fatal(err)
		}
		fac, err := DecomposeFactored(p, Options{Method: m, Ranks: ranks})
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if fac.Join != nil {
			t.Fatalf("%s: factored result materialised a join tensor", m)
		}
		if !fac.Core.Equal(ref.Core, 1e-8) {
			t.Fatalf("%s: factored core differs from join-based core", m)
		}
		for mode := range ref.Factors {
			if !fac.Factors[mode].Equal(ref.Factors[mode], 1e-12) {
				t.Fatalf("%s: factor %d differs", m, mode)
			}
		}
	}
}

func TestFactoredMatchesJoinBasedReducedDensity(t *testing.T) {
	// Product structure also holds at E < 1 (partition.Generate samples
	// one shared free set per side), so the factorisation stays exact.
	p := tinyPartition(t, 0.4, 181)
	ranks := tucker.UniformRanks(5, 2)
	ref, err := DecomposeCtx(context.Background(), p, Options{Method: SELECT, Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	fac, err := DecomposeFactored(p, Options{Method: SELECT, Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	if !fac.Core.Equal(ref.Core, 1e-8) {
		t.Fatal("factored core differs at reduced density")
	}
}

func TestFactoredZeroJoinMatches(t *testing.T) {
	p := tinyPartition(t, 0.4, 182)
	ranks := tucker.UniformRanks(5, 2)
	ref, err := DecomposeCtx(context.Background(), p, Options{Method: CONCAT, Ranks: ranks, ZeroJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	fac, err := DecomposeFactored(p, Options{Method: CONCAT, Ranks: ranks, ZeroJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	if !fac.Core.Equal(ref.Core, 1e-8) {
		t.Fatal("factored zero-join core differs from materialised zero-join core")
	}
}

func TestFactoredMultiPivot(t *testing.T) {
	space := ensemble.NewSpace(dynsys.NewDoublePendulum(), 5, 4)
	cfg := partition.Config{
		Pivots:    []int{4, 0},
		Free1:     []int{1, 3},
		Free2:     []int{2},
		PivotFrac: 1,
		FreeFrac:  1,
	}
	p, err := partition.GenerateCtx(context.Background(), space, cfg, rand.New(rand.NewSource(183)), partition.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ranks := tucker.UniformRanks(5, 2)
	ref, err := DecomposeCtx(context.Background(), p, Options{Method: AVG, Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	fac, err := DecomposeFactored(p, Options{Method: AVG, Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	if !fac.Core.Equal(ref.Core, 1e-8) {
		t.Fatal("factored core differs for k=2 pivots")
	}
}

func TestFactoredValidation(t *testing.T) {
	p := tinyPartition(t, 1, 184)
	if _, err := DecomposeFactored(p, Options{Method: "nope", Ranks: tucker.UniformRanks(5, 2)}); err == nil {
		t.Fatal("unknown method accepted")
	}
	if _, err := DecomposeFactored(p, Options{Method: AVG, Ranks: []int{1}}); err == nil {
		t.Fatal("bad rank count accepted")
	}
	// A hole in the P×E grid, or a pair without configuration lists, is no
	// longer an error (it was core.ErrNoProductStructure): the kernel takes
	// the affected pivot groups' cκ(p) from their cells, to the materialised
	// core.
	broken := &partition.Result{
		Space:        p.Space,
		Config:       p.Config,
		PivotConfigs: p.PivotConfigs,
		Free1Configs: p.Free1Configs,
		Free2Configs: p.Free2Configs,
		Sub1: &partition.SubEnsemble{
			Modes:     p.Sub1.Modes,
			NumPivots: p.Sub1.NumPivots,
			Tensor:    p.Sub1.Tensor.Clone(),
		},
		Sub2: p.Sub2,
	}
	broken.Sub1.Tensor.Idx = broken.Sub1.Tensor.Idx[:len(broken.Sub1.Tensor.Idx)-3]
	broken.Sub1.Tensor.Vals = broken.Sub1.Tensor.Vals[:len(broken.Sub1.Tensor.Vals)-1]
	noCfg := *p
	noCfg.PivotConfigs = nil
	for name, part := range map[string]*partition.Result{"one cell dropped": broken, "no pivot configuration list": &noCfg} {
		opts := Options{Method: AVG, Ranks: tucker.UniformRanks(5, 2)}
		fac, err := DecomposeFactored(part, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref, err := DecomposeCtx(context.Background(), part, opts)
		if err != nil {
			t.Fatal(err)
		}
		if fac.Join != nil || !fac.Core.Equal(ref.Core, 1e-9) {
			t.Fatalf("%s: join stitched %v, or core differs from the materialised one", name, fac.Join != nil)
		}
	}
}

func TestFactoredReconstructionAccuracy(t *testing.T) {
	p := tinyPartition(t, 1, 185)
	fac, err := DecomposeFactored(p, Options{Method: SELECT, Ranks: tucker.UniformRanks(5, 3)})
	if err != nil {
		t.Fatal(err)
	}
	y := p.Space.GroundTruth()
	relErr := fac.Reconstruct().Sub(y).Norm() / y.Norm()
	if relErr >= 1 {
		t.Fatalf("factored reconstruction relative error %v", relErr)
	}
}

// TestProjectShardPartition: the shards split each sub-tensor's cells by
// pivot key, so their partials sum to the one-shard partial — which is
// DecomposeFactored's core, read from the sub-tensors themselves and no
// copy — and a shard no key lands in projects nothing. Two pivot modes make
// the key a real linearisation.
func TestProjectShardPartition(t *testing.T) {
	space := ensemble.NewSpace(dynsys.NewDoublePendulum(), 5, 4)
	cfg := partition.Config{Pivots: []int{4, 1}, Free1: []int{3}, Free2: []int{0, 2}, PivotFrac: 1, FreeFrac: 0.6}
	p, err := partition.GenerateCtx(context.Background(), space, cfg, rand.New(rand.NewSource(185)), partition.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := DecomposeFactored(p, Options{Method: SELECT, Ranks: tucker.UniformRanks(5, 2)})
	if err != nil {
		t.Fatal(err)
	}
	spec, grid := stitch.NewSpec(p, false), SampledOf(p)
	x1, x2 := p.Sub1.Tensor, p.Sub2.Tensor
	if cells := shardCells(spec, x1, 0, 1); cells != x1 {
		t.Fatal("one shard copied the sub-tensor")
	}
	whole := ProjectShard(spec, grid, x1, x2, res.Factors, 0, 1, 1)
	keys := 4 * 5
	for _, shards := range []int{2, 3, keys + 2} {
		parts := make([]Partial, shards)
		for s := range parts {
			parts[s] = ProjectShard(spec, grid, x1, x2, res.Factors, s, shards, 2)
			if g := parts[s].G; s >= keys && g.Norm() != 0 {
				t.Fatalf("%d shards: shard %d holds no pivot key and projected norm %g", shards, s, g.Norm())
			}
			if parts[s].Holey != 0 {
				t.Fatalf("%d shards: shard %d of an intact pair counted a holey group", shards, s)
			}
		}
		if sum := FactoredCore(parts, nil); !sum.G.Equal(whole.G, 1e-12) {
			t.Fatalf("%d shards: partials do not sum to the whole", shards)
		}
	}
	if !FactoredCore([]Partial{whole}, nil).G.Equal(res.Core, 0) {
		t.Fatal("ProjectShard at 0 of 1 + FactoredCore is not DecomposeFactored's core bit for bit")
	}
}
