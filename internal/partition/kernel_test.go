package partition_test

import (
	"context"
	"testing"

	"repro/internal/dynsys"
	"repro/internal/ensemble"
	"repro/internal/faults"
	"repro/internal/partition"
)

// res12Campaign is the res-12 double-pendulum campaign (the paper's pairs,
// time pivot: 288 simulations, 3 456 cells) the allocation budget and the
// kernel-tier benchmark are stated at.
func res12Campaign() (*ensemble.Space, partition.Config) {
	space := ensemble.NewSpace(dynsys.NewDoublePendulum(), 12, 12)
	space.Reference()
	return space, partition.DefaultConfig(space.Order(), space.TimeMode(), [][2]int{{0, 2}, {1, 3}})
}

// generateAllocBudget is the checked-in ceiling on allocations per res-12
// GenerateCtx at Workers 1. The campaign needs ≈ 160: the sampled
// configuration lists, two request grids and two exactly-sized
// sub-tensors, one cell slab per sub-campaign and one workspace per
// fan-out strip (32 strips, 2 allocations each: the workspace and its
// value buffer; a unit's keys stay on the stack). The parent spent 15 775
// — 35 per simulation plus a subIdx per cell — so anything that brings
// per-simulation or per-cell scratch back blows through the ceiling by an
// order of magnitude.
const generateAllocBudget = 400

func TestGenerateCtxAllocationBudget(t *testing.T) {
	space, cfg := res12Campaign()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := partition.GenerateCtx(context.Background(), space, cfg, newRand(1), partition.SimOptions{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("GenerateCtx res 12: %.0f allocs", allocs)
	if allocs > generateAllocBudget {
		t.Fatalf("GenerateCtx res 12 allocates %.0f times, budget %d", allocs, generateAllocBudget)
	}
}

// TestGenerateCtxAllocationBudgetUnderFaults: faults are decided per
// simulation attempt inside the same fan-out over the same space, so a
// faulted campaign stays within the same ceiling, a fresh injector per run
// (as RunCtx builds one) and its retries' errors included.
func TestGenerateCtxAllocationBudgetUnderFaults(t *testing.T) {
	space, cfg := res12Campaign()
	var last *partition.Result
	allocs := testing.AllocsPerRun(5, func() {
		inj := faults.New(faults.Config{Seed: 99, TransientRate: 0.1, DivergentRate: 0.02})
		res, err := partition.GenerateCtx(context.Background(), space, cfg, newRand(1), partition.SimOptions{Workers: 1, Faults: inj})
		if err != nil {
			t.Fatal(err)
		}
		last = res
	})
	if last.Stats.RetriedSims == 0 || last.Stats.QuarantinedCells == 0 {
		t.Fatalf("fault drill is vacuous: %+v", last.Stats)
	}
	t.Logf("faulted GenerateCtx res 12: %.0f allocs", allocs)
	if allocs > generateAllocBudget {
		t.Fatalf("faulted GenerateCtx res 12 allocates %.0f times, budget %d", allocs, generateAllocBudget)
	}
}

// BenchmarkPartitionGenerate is the kernel-tier benchmark of the sub-ensemble
// stage: one whole res-12 campaign — sampling, fan-out, assembly.
func BenchmarkPartitionGenerate(b *testing.B) {
	space, cfg := res12Campaign()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.GenerateCtx(context.Background(), space, cfg, newRand(1), partition.SimOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}
