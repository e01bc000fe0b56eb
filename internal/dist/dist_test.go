package dist

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dynsys"
	"repro/internal/ensemble"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/stitch"
	"repro/internal/tensor"
	"repro/internal/tucker"
)

var doublePendulumPairs = [][2]int{{0, 2}, {1, 3}}

func tinyPartition(t *testing.T, freeFrac float64, seed int64) *partition.Result {
	t.Helper()
	return pivotPartition(t, 4, freeFrac, seed)
}

// pivotPartition is tinyPartition pivoted on the given mode: 4 is time,
// the evaluation default; 0 is a parameter mode, whose sub-tensor storage
// is not lexicographic within a pivot group.
func pivotPartition(t *testing.T, pivot int, freeFrac float64, seed int64) *partition.Result {
	t.Helper()
	space := ensemble.NewSpace(dynsys.NewDoublePendulum(), 5, 4)
	cfg := partition.DefaultConfig(5, pivot, doublePendulumPairs)
	cfg.FreeFrac = freeFrac
	res, err := partition.Generate(space, cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDistributedMatchesSerial(t *testing.T) {
	p := tinyPartition(t, 1, 120)
	ranks := tucker.UniformRanks(5, 3)
	for _, m := range core.Methods() {
		serial, err := core.DecomposeCtx(context.Background(), p, core.Options{Method: m, Ranks: ranks})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			d, err := Decompose(p, Options{
				Options: core.Options{Method: m, Ranks: ranks},
				Workers: workers,
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", m, workers, err)
			}
			if d.Join.NNZ() != serial.Join.NNZ() {
				t.Fatalf("%s workers=%d: join NNZ %d != serial %d", m, workers, d.Join.NNZ(), serial.Join.NNZ())
			}
			if !d.Core.Equal(serial.Core, 1e-9) {
				t.Fatalf("%s workers=%d: distributed core differs from serial", m, workers)
			}
			for mode := range d.Factors {
				if !d.Factors[mode].Equal(serial.Factors[mode], 1e-9) {
					t.Fatalf("%s workers=%d: factor %d differs", m, workers, mode)
				}
			}
		}
	}
}

func TestDistributedZeroJoinMatchesSerial(t *testing.T) {
	p := tinyPartition(t, 0.4, 121)
	ranks := tucker.UniformRanks(5, 2)
	serial, err := core.DecomposeCtx(context.Background(), p, core.Options{Method: core.SELECT, Ranks: ranks, ZeroJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Decompose(p, Options{
		Options: core.Options{Method: core.SELECT, Ranks: ranks, ZeroJoin: true},
		Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Join.NNZ() != serial.Join.NNZ() {
		t.Fatalf("zero-join NNZ %d != serial %d", d.Join.NNZ(), serial.Join.NNZ())
	}
	if !d.Core.Equal(serial.Core, 1e-9) {
		t.Fatal("distributed zero-join core differs from serial")
	}
}

func TestDistributedDeterministicAcrossRuns(t *testing.T) {
	p := tinyPartition(t, 1, 122)
	ranks := tucker.UniformRanks(5, 2)
	opts := Options{Options: core.Options{Method: core.SELECT, Ranks: ranks}, Workers: 4}
	a, err := Decompose(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decompose(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Core.Equal(b.Core, 0) {
		t.Fatal("repeated distributed runs differ bit-for-bit")
	}
}

func TestDistributedPhaseStats(t *testing.T) {
	p := tinyPartition(t, 1, 123)
	d, err := Decompose(p, Options{
		Options: core.Options{Method: core.SELECT, Ranks: tucker.UniformRanks(5, 2)},
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, phase := range []time.Duration{d.SubDecompTime, d.StitchTime, d.CoreTime} {
		if phase <= 0 {
			t.Fatalf("phase %d has no recorded time", i+1)
		}
	}
}

func TestDistributedRejectsBadOptions(t *testing.T) {
	p := tinyPartition(t, 1, 124)
	if _, err := Decompose(p, Options{Options: core.Options{Method: "nope", Ranks: tucker.UniformRanks(5, 2)}}); err == nil {
		t.Fatal("unknown method accepted")
	}
	if _, err := Decompose(p, Options{Options: core.Options{Method: core.AVG, Ranks: []int{1}}}); err == nil {
		t.Fatal("bad rank count accepted")
	}
}

func TestDistributedReconstructionAccuracy(t *testing.T) {
	// End-to-end: the distributed pipeline's reconstruction must
	// approximate the ground truth (relative error < 1).
	p := tinyPartition(t, 1, 125)
	d, err := Decompose(p, Options{
		Options: core.Options{Method: core.SELECT, Ranks: tucker.UniformRanks(5, 3)},
		Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	y := p.Space.GroundTruth()
	relErr := d.Reconstruct().Sub(y).Norm() / y.Norm()
	if relErr >= 1 {
		t.Fatalf("distributed reconstruction relative error %v", relErr)
	}
}

// sameResult fails unless got and want agree to the last bit: join cell
// order and values, core, factors.
func sameResult(t *testing.T, label string, got, want *core.Result) {
	t.Helper()
	sameBits := func(what string, g, w []float64) {
		t.Helper()
		if len(g) != len(w) {
			t.Fatalf("%s: %s has %d values, want %d", label, what, len(g), len(w))
		}
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("%s: %s value %d is %v, want %v", label, what, i, g[i], w[i])
			}
		}
	}
	if !slices.Equal(got.Join.Idx, want.Join.Idx) {
		t.Fatalf("%s: join cell order differs", label)
	}
	sameBits("join", got.Join.Vals, want.Join.Vals)
	if !slices.Equal(got.Core.Shape, want.Core.Shape) {
		t.Fatalf("%s: core shape %v, want %v", label, got.Core.Shape, want.Core.Shape)
	}
	sameBits("core", got.Core.Data, want.Core.Data)
	for m := range want.Factors {
		sameBits(fmt.Sprintf("factor %d", m), got.Factors[m].Data, want.Factors[m].Data)
	}
}

// TestDistributedBitIdenticalAcrossFanout: Workers is the shard count and
// nothing else decides the result — how many goroutines the pool really
// runs (here 1, 2 and 8, tasks claimed in whatever order) moves no bit.
func TestDistributedBitIdenticalAcrossFanout(t *testing.T) {
	p := tinyPartition(t, 0.5, 127)
	for _, m := range core.Methods() {
		opts := Options{Options: core.Options{Method: m, Ranks: tucker.UniformRanks(5, 2), ZeroJoin: true}, Workers: 3}
		var want *core.Result
		for _, fanout := range []int{1, 2, 8} {
			prev := parallel.SetFanoutCap(fanout)
			got, err := Decompose(p, opts)
			parallel.SetFanoutCap(prev)
			if err != nil {
				t.Fatalf("%s fan-out %d: %v", m, fanout, err)
			}
			if want == nil {
				want = got
				continue
			}
			sameResult(t, fmt.Sprintf("%s fan-out %d", m, fanout), got, want)
		}
	}
}

// TestDistributedZeroWorkersIsOneShard: Workers below 1 means one shard,
// and one shard is core.DecomposeCtx's computation — the same stitch
// kernel over the whole key range, the same projection of the same cell
// order — so the two materialised executors agree to the last bit of
// every factor, core value and join cell.
func TestDistributedZeroWorkersIsOneShard(t *testing.T) {
	for _, pivot := range []int{4, 0} {
		p := pivotPartition(t, pivot, 0.5, 129)
		for _, m := range core.Methods() {
			for _, zero := range []bool{false, true} {
				opts := Options{Options: core.Options{Method: m, Ranks: tucker.UniformRanks(5, 2), ZeroJoin: zero}}
				want, err := core.DecomposeCtx(context.Background(), p, opts.Options)
				if err != nil {
					t.Fatal(err)
				}
				for _, workers := range []int{0, 1} {
					opts.Workers = workers
					got, err := Decompose(p, opts)
					if err != nil {
						t.Fatal(err)
					}
					sameResult(t, fmt.Sprintf("pivot %d %s zero=%v: workers=%d vs core.DecomposeCtx", pivot, m, zero, workers), got, want)
				}
			}
		}
	}
}

// TestDistributedEmptyShardsAndEmptyJoin: more shards than pivot keys
// leaves shards with no group, and sub-tensors that share no pivot
// configuration leave every shard empty — the join is then empty and the
// core all-zero at the clipped ranks.
func TestDistributedEmptyShardsAndEmptyJoin(t *testing.T) {
	p := tinyPartition(t, 1, 128)
	ranks := tucker.UniformRanks(5, 9) // clipped to 5 on the parameter modes, 4 on time
	opts := Options{Options: core.Options{Method: core.SELECT, Ranks: ranks}}
	spec := stitch.NewSpec(p, false)
	keys := p.Space.Shape()[spec.Pivots[0]]

	serial, err := core.DecomposeCtx(context.Background(), p, opts.Options)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = keys + 3
	d, err := Decompose(p, opts)
	if err != nil {
		t.Fatalf("workers=%d over %d pivot keys: %v", opts.Workers, keys, err)
	}
	if d.Join.NNZ() != serial.Join.NNZ() || !d.Core.Equal(serial.Core, 1e-9) {
		t.Fatalf("workers=%d over %d pivot keys: result differs from serial", opts.Workers, keys)
	}

	// Side 1 keeps the even pivot keys, side 2 the odd ones.
	disjoint := *p
	sub1, sub2 := *p.Sub1, *p.Sub2
	sub1.Tensor = thin(p.Sub1.Tensor, func(_ int, idx []int) bool { return spec.PivotKey(idx)%2 == 1 })
	sub2.Tensor = thin(p.Sub2.Tensor, func(_ int, idx []int) bool { return spec.PivotKey(idx)%2 == 0 })
	disjoint.Sub1, disjoint.Sub2 = &sub1, &sub2
	for _, workers := range []int{1, 3} {
		opts.Workers = workers
		d, err := Decompose(&disjoint, opts)
		if err != nil {
			t.Fatalf("disjoint pivots, workers=%d: %v", workers, err)
		}
		if d.Join.NNZ() != 0 {
			t.Fatalf("disjoint pivots, workers=%d: join has %d cells", workers, d.Join.NNZ())
		}
		if want := tucker.ClipRanks(p.Space.Shape(), ranks); !slices.Equal(d.Core.Shape, want) {
			t.Fatalf("disjoint pivots, workers=%d: core shape %v, want %v", workers, d.Core.Shape, want)
		}
		if d.Core.Norm() != 0 {
			t.Fatalf("disjoint pivots, workers=%d: core norm %v, want 0", workers, d.Core.Norm())
		}
	}
}

// TestDistributedShardsStayPlanFree pins the sparse-TTM dispatch rule on
// the D-M2TD path: kernel plans are compiled by the Phase 1 Gram steps —
// one per sub-tensor mode — and by nothing else. The Phase 3 shard
// tensors and the join are one-shot TTM inputs, so with real fan-out
// available and shards past the planned-path size gate (4096 cells) they
// must add no build, whatever the shard count.
func TestDistributedShardsStayPlanFree(t *testing.T) {
	prev := parallel.SetFanoutCap(8)
	defer parallel.SetFanoutCap(prev)

	space := ensemble.NewSpace(dynsys.NewDoublePendulum(), 7, 4)
	cfg := partition.DefaultConfig(5, 4, doublePendulumPairs)
	p, err := partition.Generate(space, cfg, rand.New(rand.NewSource(131)))
	if err != nil {
		t.Fatal(err)
	}
	gramPlans := int64(p.Sub1.Tensor.Order() + p.Sub2.Tensor.Order())
	opts := Options{Options: core.Options{Method: core.SELECT, Ranks: tucker.UniformRanks(5, 3)}}
	for _, workers := range []int{1, 2} {
		opts.Workers = workers
		// Plans are cached on the sub-tensors and outlive a run, so each
		// run gets a planless view and must compile its own.
		builds0, _ := tensor.PlanCacheStats()
		d, err := Decompose(p.PlanlessView(), opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		builds1, _ := tensor.PlanCacheStats()
		if shard := d.Join.NNZ() / workers; shard < 4096 {
			t.Fatalf("workers=%d: %d cells per shard, too few to reach the planned-path size gate", workers, shard)
		}
		if got := builds1 - builds0; got != gramPlans {
			t.Fatalf("workers=%d: %d plans compiled, want %d (Phase 1 Gram steps only)", workers, got, gramPlans)
		}
		if builds, hits := d.Join.PlanStats(); builds != 0 || hits != 0 {
			t.Fatalf("workers=%d: join plan cache touched: %d builds, %d hits", workers, builds, hits)
		}
	}
}
