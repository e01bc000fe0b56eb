package m2td

// Tests of the one rule RunCtx decomposes by: the join-free
// core on every executor — on an intact partition and on one a failed or
// quarantined simulation left holes in — with core.DecomposeCtx, which
// stitches, as the oracle.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ensemble"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/stitch"
	"repro/internal/tensor"
	"repro/internal/tucker"
)

// partitionAt PF-partitions space at pivot with pivot density p and
// sub-ensemble density e under seed, as RunCtx's simulation stage does.
func partitionAt(t testing.TB, space *ensemble.Space, pivot int, p, e float64, seed int64) *partition.Result {
	t.Helper()
	cfg := partition.DefaultConfig(space.Order(), pivot, eval.PairsFor(space.Sys.Name()))
	cfg.PivotFrac, cfg.FreeFrac = p, e
	part, err := partition.GenerateCtx(context.Background(), space, cfg, rand.New(rand.NewSource(seed)), partition.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return part
}

// stitched is the join, or the zero-join, stitching builds for part.
func stitched(part *partition.Result, zeroJoin bool) *tensor.Sparse {
	if zeroJoin {
		return stitch.ZeroJoin(part)
	}
	return stitch.Join(part)
}

// requireSameBits fails unless two decompositions are equal to the last
// bit of every core cell and factor entry.
func requireSameBits(t *testing.T, what string, got, want *core.Result) {
	t.Helper()
	same := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	if !same(got.Core.Data, want.Core.Data) {
		t.Fatalf("%s: cores differ", what)
	}
	if len(got.Factors) != len(want.Factors) {
		t.Fatalf("%s: %d factors vs %d", what, len(got.Factors), len(want.Factors))
	}
	for m := range got.Factors {
		if !same(got.Factors[m].Data, want.Factors[m].Data) {
			t.Fatalf("%s: mode-%d factors differ", what, m)
		}
	}
}

// routeCase is one point of the grid both route properties sweep:
// {join, zero-join} × (P, E) ∈ {1, 0.5}² × {time pivot, parameter pivot}.
type routeCase struct {
	name     string
	part     *partition.Result
	zeroJoin bool
	holes    bool // a fault-injected campaign's partition
}

func routeCases(t *testing.T) []routeCase {
	t.Helper()
	space, err := eval.SpaceFor("double-pendulum", 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	var cases []routeCase
	for _, pivot := range []int{space.TimeMode(), 0} {
		for _, p := range []float64{1, 0.5} {
			for _, e := range []float64{1, 0.5} {
				part := partitionAt(t, space, pivot, p, e, 11)
				for _, zj := range []bool{false, true} {
					cases = append(cases, routeCase{
						name: fmt.Sprintf("pivot=%s/P=%g/E=%g/zero=%t", space.ModeName(pivot), p, e, zj),
						part: part, zeroJoin: zj,
					})
				}
			}
		}
	}
	return append(cases, faultedCases(t)...)
}

// faultedCases are the partitions of campaigns that lost something: one
// permanently failed simulation, and cells quarantined at ingest by
// divergent trajectories. Their P×E grids have holes.
func faultedCases(t *testing.T) []routeCase {
	t.Helper()
	var cases []routeCase
	for name, f := range map[string]faults.Config{
		"failed-sim":  {Seed: 3, PanicRate: 0.02},
		"quarantined": {Seed: 5, DivergentRate: 0.05},
	} {
		cfg := smallConfig()
		cfg.SkipAccuracy, cfg.Faults = true, &f
		report, err := RunCtx(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if report.FailedSims+report.QuarantinedCells == 0 {
			t.Fatalf("fixture %s: the campaign lost nothing", name)
		}
		for _, zj := range []bool{false, true} {
			cases = append(cases, routeCase{name: fmt.Sprintf("%s/zero=%t", name, zj), part: report.Partition, zeroJoin: zj, holes: true})
		}
	}
	return cases
}

// TestRoutesAgree is the cross-route property the dispatch rule leans on:
// the join-free core equals the core recovered from the materialised join
// to 1e-9 of the core's largest magnitude (the two sum in different
// orders), and the factors — computed from the sub-tensors on both routes
// — are bit-equal, for every method over the whole grid of cases and over
// the fault-injected ones (one failed simulation; quarantined cells), whose
// holey pivot groups the same formula takes. The engines run that kernel
// too, so the table carries them: in process at three shards (Workers) on
// every case, the process engine (Distributed) at three shards on
// the P = E = 0.5 and the fault-injected cases — join and zero-join — each
// join-free and within 1e-9 of the stitched result.
func TestRoutesAgree(t *testing.T) {
	ctx := context.Background()
	for _, c := range routeCases(t) {
		for _, method := range core.Methods() {
			name := c.name + "/" + string(method)
			ranks := tucker.UniformRanks(c.part.Space.Order(), 2)
			copts := core.Options{Method: method, Ranks: ranks, ZeroJoin: c.zeroJoin}
			joined, err := core.DecomposeCtx(ctx, c.part, copts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			routes := map[string]func() (*core.Result, error){
				"in-process": func() (*core.Result, error) { return core.DecomposeFactored(c.part, copts) },
				"Workers": func() (*core.Result, error) {
					res, _, err := decomposeStage(ctx, nil, c.part, method, ranks, Config{Workers: 3, ZeroJoin: c.zeroJoin})
					return res, err
				},
			}
			if method == core.SELECT && (c.holes || strings.Contains(c.name, "P=0.5/E=0.5")) {
				routes["Distributed"] = func() (*core.Result, error) {
					res, _, err := decomposeStage(ctx, nil, c.part, method, ranks, Config{
						Distributed: &DistributedConfig{Workers: 2, Shards: 3}, ZeroJoin: c.zeroJoin,
					})
					return res, err
				}
			}
			for route, run := range routes {
				factored, err := run()
				if err != nil {
					t.Fatalf("%s %s: %v", name, route, err)
				}
				if factored.Join != nil {
					t.Fatalf("%s %s: the decomposition materialised a join", name, route)
				}
				if got, want := c.part.JoinCells(c.zeroJoin), joined.Join.NNZ(); got != want {
					t.Errorf("%s %s: JoinCells %d, stitched join %d", name, route, got, want)
				}
				var diff, scale float64
				for i, v := range joined.Core.Data {
					diff = math.Max(diff, math.Abs(factored.Core.Data[i]-v))
					scale = math.Max(scale, math.Abs(v))
				}
				if diff > 1e-9*scale {
					t.Errorf("%s %s: cores differ by %g relative", name, route, diff/scale)
				}
				factored.Core = joined.Core
				requireSameBits(t, name+" "+route+" factors", factored, joined)
			}
		}
	}
}

// TestJoinCellsMatchesStitch is the paper's density formula as an
// executable property: the count RunCtx reports in place of a tensor's NNZ
// equals what stitching actually builds — on the intact grid, where it is
// the closed form P·E₁·E₂ (+ the zero-join extensions), on the
// fault-injected partitions, and on ones thinned by hand: scattered cells gone,
// and a pivot group left on one side only.
func TestJoinCellsMatchesStitch(t *testing.T) {
	cases := routeCases(t)
	for _, c := range cases { // the cases as they stand: range reads the slice once
		if c.holes {
			continue
		}
		e1, e2 := len(c.part.Free1Configs), len(c.part.Free2Configs)
		if closed := len(c.part.PivotConfigs) * e1 * e2; !c.zeroJoin && c.part.JoinCells(false) != closed {
			t.Errorf("%s: JoinCells %d on an intact partition, density formula %d", c.name, c.part.JoinCells(false), closed)
		}
		thin := *c.part
		sub1, sub2 := *c.part.Sub1, *c.part.Sub2
		sub1.Tensor, sub2.Tensor = tensor.NewSparse(sub1.Tensor.Shape), tensor.NewSparse(sub2.Tensor.Shape)
		c.part.Sub1.Tensor.Each(func(idx []int, v float64) {
			if idx[0] != 1 && (idx[1]+idx[2])%3 != 0 { // no pivot 1 on side 1
				sub1.Tensor.Append(idx, v)
			}
		})
		c.part.Sub2.Tensor.Each(func(idx []int, v float64) {
			if (idx[0]+idx[1])%4 != 0 {
				sub2.Tensor.Append(idx, v)
			}
		})
		thin.Sub1, thin.Sub2 = &sub1, &sub2
		cases = append(cases, routeCase{name: c.name + "/thinned", part: &thin, zeroJoin: c.zeroJoin, holes: true})
	}
	for _, c := range cases {
		j := stitched(c.part, c.zeroJoin)
		if got := c.part.JoinCells(c.zeroJoin); got != j.NNZ() {
			t.Errorf("%s: JoinCells %d != stitched NNZ %d", c.name, got, j.NNZ())
		}
	}
}

// TestBrokenProductStructureFallsBack — the name is the parent's; nothing
// falls back any more. A campaign with one permanently failed simulation,
// and one with quarantined cells, on the default route, in process at three
// shards and on the process engine: no join on the report, no stitch span,
// factored = 1, holey_groups > 0, JoinCells equal to what stitching would
// build, and the core within 1e-9 of core.DecomposeCtx on the same
// partition. In process the run is core.DecomposeFactored's at the same
// shard count, bit for bit, with its factors and core spans;
// the two engines agree to the last
// bit at equal shard counts. Factored, which used to fail such a run with
// core.ErrNoProductStructure, selects nothing.
func TestBrokenProductStructureFallsBack(t *testing.T) {
	ctx := context.Background()
	for name, f := range map[string]faults.Config{
		"failed simulation": {Seed: 3, PanicRate: 0.02},
		"quarantined cells": {Seed: 5, DivergentRate: 0.05},
	} {
		var cores []*core.Result
		for _, engine := range []func(*Config){
			func(*Config) {},
			func(c *Config) { c.Factored = true },
			func(c *Config) { c.Workers = 3 },
			func(c *Config) { c.Distributed = &DistributedConfig{Workers: 2, Shards: 3} },
		} {
			cfg := smallConfig()
			cfg.SkipAccuracy, cfg.Trace = true, true
			faulted := f
			cfg.Faults = &faulted
			engine(&cfg)
			report, err := RunCtx(ctx, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if report.FailedSims+report.QuarantinedCells == 0 {
				t.Fatalf("fixture %s: the campaign lost nothing", name)
			}
			res, d := report.Decomposition, report.Trace.Root().Find("decompose")
			if res.Join != nil || d.Find("stitch") != nil || d.Counter("factored") != 1 || d.Counter("holey_groups") < 1 {
				t.Fatalf("%s: join stitched %v, span:\n%s", name, res.Join != nil, d.Skeleton())
			}
			if report.Distributed != nil && (d.Find("phase2") != nil || d.Find("phase3").Counter("tasks") != 3) {
				t.Fatalf("%s: process engine span:\n%s", name, d.Skeleton())
			}
			copts := core.Options{Method: core.SELECT, Ranks: tucker.UniformRanks(report.Space.Order(), cfg.Rank)}
			want, err := core.DecomposeCtx(ctx, report.Partition, copts)
			if err != nil {
				t.Fatal(err)
			}
			if report.JoinCells != want.Join.NNZ() {
				t.Fatalf("%s: JoinCells %d, stitched join %d", name, report.JoinCells, want.Join.NNZ())
			}
			if !res.Core.Equal(want.Core, 1e-9) {
				t.Fatalf("%s: core differs from core.DecomposeCtx on the same partition", name)
			}
			if cfg.Distributed == nil {
				if c := d.Find("core"); c == nil || d.Find("factors") == nil || c.Counter("holey_groups") != d.Counter("holey_groups") {
					t.Errorf("%s: factors and core spans missing, or core without the stage's holey_groups:\n%s", name, d.Skeleton())
				}
				copts.Shards = cfg.Workers
				direct, err := core.DecomposeFactored(report.Partition, copts)
				if err != nil || direct.Join != nil {
					t.Fatalf("%s: core.DecomposeFactored: Join %v, err %v", name, direct, err)
				}
				requireSameBits(t, name+": RunCtx vs core.DecomposeFactored", res, direct)
			}
			cores = append(cores, res)
		}
		requireSameBits(t, name+": Factored vs default", cores[1], cores[0])
		requireSameBits(t, name+": Workers 3 vs Distributed at 3 shards", cores[2], cores[3])
	}
}

// TestNoConfigBuildsTheJoin: nothing a Config can say makes a campaign
// stitch J. Every executor — in process at one shard and at three, the
// process engine — on an intact campaign and on one that lost cells to divergent
// trajectories, plain join and zero-join: no join on the report, no stitch
// span under decompose, factored = 1, and the join's size reported from the
// partition's pivot groups.
func TestNoConfigBuildsTheJoin(t *testing.T) {
	executors := map[string]func(*Config){
		"default":     func(*Config) {},
		"Workers":     func(c *Config) { c.Workers = 3 },
		"Distributed": func(c *Config) { c.Distributed = &DistributedConfig{Workers: 2, Shards: 3} },
	}
	for name, executor := range executors {
		for _, divergent := range []float64{0, 0.02} {
			for _, zj := range []bool{false, true} {
				what := fmt.Sprintf("%s/divergent=%g/zero=%t", name, divergent, zj)
				cfg := smallConfig()
				cfg.SkipAccuracy, cfg.Trace, cfg.ZeroJoin = true, true, zj
				if divergent > 0 {
					cfg.Faults = &faults.Config{Seed: 7, DivergentRate: divergent}
				}
				executor(&cfg)
				report, err := RunCtx(context.Background(), cfg)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if (report.QuarantinedCells > 0) != (divergent > 0) {
					t.Fatalf("fixture %s: %d quarantined cells", what, report.QuarantinedCells)
				}
				d := report.Trace.Root().Find("decompose")
				if report.Decomposition.Join != nil || d.Find("stitch") != nil || d.Counter("factored") != 1 {
					t.Errorf("%s: join stitched %v, span:\n%s", what, report.Decomposition.Join != nil, d.Skeleton())
				}
				if want := report.Partition.JoinCells(zj); report.JoinCells != want {
					t.Errorf("%s: JoinCells %d, the partition's pivot groups hold %d", what, report.JoinCells, want)
				}
			}
		}
	}
}

// decompAllocCeiling is the checked-in bound on what the decomposition
// stage of a default res-12 campaign may allocate. The join-free route
// measures ≈ 0.44 MB (plan compilation included); stitching and projecting the 248 832-cell join
// allocated ≈ 13 MB.
const decompAllocCeiling = 1 << 20

// TestDefaultRunBuildsNoJoin pins the default route at the dense-join
// workload's size: no join tensor, no stitch span, the decompose span
// marked factored, the join's size still reported, and a decomposition
// stage that allocates like two sub-tensors rather than like P·E² cells.
func TestDefaultRunBuildsNoJoin(t *testing.T) {
	report, err := RunCtx(context.Background(), Config{Resolution: 12, Rank: 4, SkipAccuracy: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if report.Decomposition.Join != nil {
		t.Fatal("default run materialised the join")
	}
	if report.JoinCells != 12*12*12*12*12 {
		t.Fatalf("JoinCells = %d, want the full join's %d", report.JoinCells, 12*12*12*12*12)
	}
	d := report.Trace.Root().Find("decompose")
	if d.Find("stitch") != nil || d.Counter("factored") != 1 {
		t.Fatalf("default run: want no stitch span and factored=1:\n%s", d.Skeleton())
	}

	// Decomposition stage only, serial so nothing else allocates meanwhile.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	opts := core.Options{Method: core.SELECT, Ranks: tucker.UniformRanks(report.Space.Order(), 4), Workers: 1}
	if _, err := core.DecomposeFactored(report.Partition, opts); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > decompAllocCeiling {
		t.Fatalf("decomposition stage allocated %d bytes, ceiling %d", got, decompAllocCeiling)
	}
}

// TestDefaultRouteBitIdenticalAcrossParallel: the default route's
// decomposition is one set of bits at Parallel 1, 2 and 8 (fan-out cap
// raised so the pool really runs that many goroutines).
func TestDefaultRouteBitIdenticalAcrossParallel(t *testing.T) {
	defer parallel.SetFanoutCap(parallel.SetFanoutCap(8))
	var want *core.Result
	for _, workers := range []int{1, 2, 8} {
		cfg := smallConfig()
		cfg.SkipAccuracy = true
		cfg.Parallel = workers
		report, err := RunCtx(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if report.Decomposition.Join != nil {
			t.Fatalf("Parallel=%d: default run materialised the join", workers)
		}
		if want == nil {
			want = report.Decomposition
			continue
		}
		requireSameBits(t, fmt.Sprintf("Parallel=%d vs 1", workers), report.Decomposition, want)
	}
}

// TestDecomposeStageNamesItselfOnEveryRoute: whichever engine the route
// options pick, a failing decomposition comes back as the decomposition
// stage's error (a Workers arm once returned its engine's error bare).
func TestDecomposeStageNamesItselfOnEveryRoute(t *testing.T) {
	part := routeCases(t)[0].part
	ranks := tucker.UniformRanks(part.Space.Order(), 2)
	for name, cfg := range map[string]Config{
		"default":  {},
		"Workers":  {Workers: 2},
		"Factored": {Factored: true},
	} {
		_, _, err := decomposeStage(context.Background(), nil, part, core.Method("bogus"), ranks, cfg)
		if err == nil || !strings.HasPrefix(err.Error(), "m2td: decomposition stage: ") {
			t.Errorf("%s route: want an error prefixed with the stage, got %v", name, err)
		}
	}
}
