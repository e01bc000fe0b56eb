package m2td

// Tests of the in-process dispatch rule (core.M2TDCtx) as RunCtx and
// DecomposeCtx apply it: the join-free core whenever the partition has its
// P×E product structure, the materialised join otherwise.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/tucker"
)

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
				part, err := PartitionCtx(context.Background(), space, pivot, PartitionOptions{PivotFrac: p, FreeFrac: e, Seed: 11})
				if err != nil {
					t.Fatal(err)
				}
				for _, zj := range []bool{false, true} {
					cases = append(cases, routeCase{
						name: fmt.Sprintf("pivot=%s/P=%g/E=%g/zero=%t", space.ModeName(pivot), p, e, zj),
						part: part, zeroJoin: zj,
					})
				}
			}
		}
	}
	return cases
}

// TestRoutesAgree is the cross-route property the dispatch rule leans on:
// the join-free core equals the core recovered from the materialised join
// to 1e-9 of the core's largest magnitude (the two sum in different
// orders), and the factors — computed from the sub-tensors on both routes
// — are bit-equal, for every method over the whole grid of cases. The
// engines follow the same rule, so the table carries them too: the
// goroutine pool (Workers) at three shards on every case, the process
// engine (Distributed) at three shards on the P = E = 0.5 cases — join and
// zero-join, both pivots — each join-free and within 1e-9 of the in-process
// result.
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
				"in-process": func() (*core.Result, error) { return core.M2TDCtx(ctx, c.part, copts) },
				"Workers": func() (*core.Result, error) {
					res, _, err := decomposeStage(ctx, nil, c.part, method, ranks, Config{Workers: 3, ZeroJoin: c.zeroJoin})
					return res, err
				},
			}
			if method == core.SELECT && strings.Contains(c.name, "P=0.5/E=0.5") {
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
					t.Fatalf("%s %s: the dispatch rule materialised a join on an intact partition", name, route)
				}
				if got, want := factored.JoinCells(c.part, c.zeroJoin), joined.Join.NNZ(); got != want {
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
// executable property: the closed form RunCtx reports in place of a
// tensor's NNZ equals what stitching actually builds.
func TestJoinCellsMatchesStitch(t *testing.T) {
	for _, c := range routeCases(t) {
		j, err := StitchCtx(context.Background(), c.part, StitchOptions{ZeroJoin: c.zeroJoin})
		if err != nil {
			t.Fatal(err)
		}
		if got := c.part.JoinCells(c.zeroJoin); got != j.NNZ() {
			t.Errorf("%s: density formula %d != stitched NNZ %d", c.name, got, j.NNZ())
		}
	}
}

// TestBrokenProductStructureFallsBack: one permanently failing simulation
// leaves a hole in the P×E grid, so the campaign takes the materialising
// route — a join on the result, bits equal to core.DecomposeCtx on the
// same partition (the route the parent always took) — unless Factored
// requires the join-free one, which then fails with the sentinel.
func TestBrokenProductStructureFallsBack(t *testing.T) {
	cfg := smallConfig()
	cfg.SkipAccuracy = true
	cfg.Trace = true
	cfg.Faults = &faults.Config{Seed: 3, PanicRate: 0.02}
	report, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.FailedSims != 1 {
		t.Fatalf("fixture: %d failed simulations, want exactly 1", report.FailedSims)
	}
	res := report.Decomposition
	if res.Join == nil || report.JoinCells != res.Join.NNZ() {
		t.Fatalf("fallback run: Join %v, JoinCells %d", res.Join, report.JoinCells)
	}
	if d := report.Trace.Root().Find("decompose"); d.Counter("factored") != 0 || d.Find("stitch") == nil {
		t.Errorf("fallback run: want factored=0 and a stitch span:\n%s", d.Skeleton())
	}
	want, err := core.DecomposeCtx(context.Background(), report.Partition, core.Options{
		Method: core.SELECT, Ranks: tucker.UniformRanks(report.Space.Order(), cfg.Rank),
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "fallback vs core.DecomposeCtx", res, want)
	direct, err := core.M2TDCtx(context.Background(), report.Partition, core.Options{
		Method: core.SELECT, Ranks: tucker.UniformRanks(report.Space.Order(), cfg.Rank),
	})
	if err != nil || direct.Join == nil {
		t.Fatalf("core.M2TDCtx on a broken product structure: Join %v, err %v", direct, err)
	}
	requireSameBits(t, "core.M2TDCtx fallback vs core.DecomposeCtx", direct, want)

	cfg.Factored = true
	cfg.Faults = &faults.Config{Seed: 3, PanicRate: 0.02}
	if _, err := RunCtx(context.Background(), cfg); !errors.Is(err, core.ErrNoProductStructure) {
		t.Fatalf("Factored on a broken product structure: want ErrNoProductStructure, got %v", err)
	}
	// A required join-free decomposition that failed did not happen: the
	// caller's decompose span must not claim factored = 1.
	trace := NewTrace("custom")
	if _, err := DecomposeCtx(context.Background(), report.Partition, DecomposeOptions{Rank: cfg.Rank, Factored: true, Trace: trace}); !errors.Is(err, core.ErrNoProductStructure) {
		t.Fatalf("DecomposeCtx Factored on a broken product structure: want ErrNoProductStructure, got %v", err)
	}
	if d := trace.Root().Find("decompose"); d == nil || d.Counter("factored") != 0 {
		t.Errorf("failed Factored decomposition: want a decompose span with factored=0:\n%s", trace.Root().Skeleton())
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
	if _, err := DecomposeCtx(context.Background(), report.Partition.PlanlessView(), DecomposeOptions{Parallel: 1}); err != nil {
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
// stage's error (the Workers arm used to return dist.Decompose's bare).
func TestDecomposeStageNamesItselfOnEveryRoute(t *testing.T) {
	part := routeCases(t)[0].part
	ranks := tucker.UniformRanks(part.Space.Order(), 2)
	for name, cfg := range map[string]Config{
		"default":  {},
		"Workers":  {Workers: 2},
		"Factored": {Factored: true},
		"Sketch":   {Sketch: SketchConfig{KeepFrac: 0.5, Seed: 1}},
	} {
		_, _, err := decomposeStage(context.Background(), nil, part, core.Method("bogus"), ranks, cfg)
		if err == nil || !strings.HasPrefix(err.Error(), "m2td: decomposition stage: ") {
			t.Errorf("%s route: want an error prefixed with the stage, got %v", name, err)
		}
	}
}
