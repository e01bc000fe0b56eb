package distnet

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/faults"
	"repro/internal/tensor"
	"repro/internal/tucker"
)

func sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d is %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestDistNetBitIdenticalToReferencePhases pins the engine's output to the
// last bit against the in-process executor of the same phase bodies, on
// both routes at equal shard counts: the materialised phases against
// dist.DecomposeMaterialised (itself pinned to the per-group stitch oracle
// in internal/dist), the join-free ones against dist.Decompose (itself
// core.DecomposeFactored at one shard). The data plane — store
// round-trips, frames, leases — must move nothing. The join's cell order,
// the partial projections' summation order and with them the core are part
// of the engine's contract (a WorkDir resumes, accuracy is a pure function
// of the seed).
func TestDistNetBitIdenticalToReferencePhases(t *testing.T) {
	ranks := tucker.UniformRanks(5, 2)
	type arm struct {
		method   core.Method
		zero     bool
		freeFrac float64
	}
	arms := []arm{{core.SELECT, true, 0.4}}
	for _, m := range core.Methods() {
		arms = append(arms, arm{m, false, 1})
	}
	for _, a := range arms {
		t.Run(fmt.Sprintf("%s/zero=%v", a.method, a.zero), func(t *testing.T) {
			p := tinyPartition(t, a.freeFrac, 228)
			for _, shards := range []int{1, 3, 4} {
				opts := Options{Method: a.method, Ranks: ranks, ZeroJoin: a.zero, Workers: 2, Shards: shards}
				ref := dist.Options{Options: core.Options{Method: a.method, Ranks: ranks, ZeroJoin: a.zero}, Workers: shards}

				got := runMaterialised(t, p, opts)
				want, err := dist.DecomposeMaterialised(p, ref)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got.Join.Idx, want.Join.Idx) {
					t.Fatalf("shards=%d: join cell order differs", shards)
				}
				sameBits(t, fmt.Sprintf("shards=%d join values", shards), got.Join.Vals, want.Join.Vals)
				if cap(got.Join.Vals) != len(got.Join.Vals) {
					t.Fatalf("shards=%d: merged join not sized exactly: %d cells, cap %d", shards, len(got.Join.Vals), cap(got.Join.Vals))
				}
				sameBits(t, fmt.Sprintf("shards=%d core", shards), got.Core.Data, want.Core.Data)
				for m := range want.Factors {
					sameBits(t, fmt.Sprintf("shards=%d factor %d", shards, m), got.Factors[m].Data, want.Factors[m].Data)
				}

				got = routes["join-free"](t, p, opts)
				if want, err = dist.Decompose(p, ref); err != nil {
					t.Fatal(err)
				}
				if want.Join != nil {
					t.Fatalf("shards=%d: dist.Decompose stitched a join on an intact partition", shards)
				}
				sameBits(t, fmt.Sprintf("shards=%d join-free core", shards), got.Core.Data, want.Core.Data)
				for m := range want.Factors {
					sameBits(t, fmt.Sprintf("shards=%d join-free factor %d", shards, m), got.Factors[m].Data, want.Factors[m].Data)
				}
			}
		})
	}
}

// TestDistNetJoinFreeBitIdentityChain is the join-free route's determinism
// contract end to end. At one shard the engine computes
// core.DecomposeFactored's bits (through dist.Decompose{Workers: 1}); at a
// fixed larger shard count its bits are dist.Decompose's for any worker
// count and any kill; and between shard counts — between summation orders
// — engine and in-process result agree to 1e-9.
func TestDistNetJoinFreeBitIdentityChain(t *testing.T) {
	p := tinyPartition(t, 0.5, 229)
	ranks := tucker.UniformRanks(5, 2)
	for _, zero := range []bool{false, true} {
		copts := core.Options{Method: core.SELECT, Ranks: ranks, ZeroJoin: zero}
		inproc, err := core.DecomposeFactored(p, copts)
		if err != nil {
			t.Fatal(err)
		}
		one := routes["join-free"](t, p, Options{Method: core.SELECT, Ranks: ranks, ZeroJoin: zero, Workers: 2, Shards: 1})
		sameBits(t, fmt.Sprintf("zero=%v: one shard vs core.DecomposeFactored", zero), one.Core.Data, inproc.Core.Data)

		pool, err := dist.Decompose(p, dist.Options{Options: copts, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, fleet := range []Options{{Workers: 1}, {Workers: 3}, {Workers: 3, Kill: faults.KillSpec{Seed: 9, Kills: 2}}} {
			fleet.Method, fleet.Ranks, fleet.ZeroJoin, fleet.Shards = core.SELECT, ranks, zero, 4
			got := routes["join-free"](t, p, fleet)
			label := fmt.Sprintf("zero=%v workers=%d kills=%d: four shards vs dist.Decompose", zero, fleet.Workers, fleet.Kill.Kills)
			sameBits(t, label+", core", got.Core.Data, pool.Core.Data)
			for m := range pool.Factors {
				sameBits(t, fmt.Sprintf("%s, factor %d", label, m), got.Factors[m].Data, pool.Factors[m].Data)
			}
			if lost := got.Phase1.WorkersLost + got.Phase3.WorkersLost; lost != fleet.Kill.Kills {
				t.Fatalf("%s: %d workers lost", label, lost)
			}
		}
		if !pool.Core.Equal(inproc.Core, 1e-9) {
			t.Fatalf("zero=%v: four shards differ from core.DecomposeFactored by more than 1e-9", zero)
		}
	}
}

// TestDistNetBrokenProductStructureFallsBack: a partition with one
// quarantined cell takes the materialised phases on the process engine as
// it does in process — stitch tasks, a join on the result — with
// dist.Decompose's bits at equal shards and core.DecomposeCtx's
// decomposition.
func TestDistNetBrokenProductStructureFallsBack(t *testing.T) {
	p := tinyPartition(t, 1, 230)
	broken, sub2 := *p, *p.Sub2
	sub2.Tensor = tensor.NewSparse(p.Sub2.Tensor.Shape)
	for e := 0; e < p.Sub2.Tensor.NNZ(); e++ {
		if e != 11 { // the quarantined cell
			sub2.Tensor.Append(p.Sub2.Tensor.Entry(e))
		}
	}
	broken.Sub2 = &sub2
	ranks := tucker.UniformRanks(5, 2)
	copts := core.Options{Method: core.SELECT, Ranks: ranks}

	got := runDistNet(t, &broken, Options{Method: core.SELECT, Ranks: ranks, Workers: 2, Shards: 3})
	if got.Join == nil || got.Phase2.Tasks != 3 || got.Phase2.Duration <= 0 {
		t.Fatalf("no materialised phases on a partition without its product structure: join stitched %v, phase 2 %+v", got.Join != nil, got.Phase2)
	}
	pool, err := dist.Decompose(&broken, dist.Options{Options: copts, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Join.Idx, pool.Join.Idx) {
		t.Fatal("join cell order differs from dist.Decompose")
	}
	sameBits(t, "join vs dist.Decompose", got.Join.Vals, pool.Join.Vals)
	sameBits(t, "core vs dist.Decompose", got.Core.Data, pool.Core.Data)
	serial, err := core.DecomposeCtx(context.Background(), &broken, copts)
	if err != nil {
		t.Fatal(err)
	}
	sameDecomposition(t, "vs core.DecomposeCtx", got.Result, serial, 1e-9)
}
