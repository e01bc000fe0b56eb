package distnet

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/store"
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
// last bit against the in-process executor of the same phase bodies at
// equal shard counts: core.DecomposeFactored{Shards} (tested against
// core.DecomposeCtx{Shards} — the stitch oracle). The data plane — store round-trips, frames, leases — must move
// nothing. The partials' summation order and with it the core are part of
// the engine's contract (a WorkDir resumes, accuracy is a pure function of
// the seed).
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
				ref := core.Options{Method: a.method, Ranks: ranks, ZeroJoin: a.zero, Shards: shards}

				got := runDistNet(t, p, opts)
				want, err := core.DecomposeFactored(p, ref)
				if err != nil {
					t.Fatal(err)
				}
				if want.Join != nil {
					t.Fatalf("shards=%d: core.DecomposeFactored stitched a join", shards)
				}
				sameBits(t, fmt.Sprintf("shards=%d core", shards), got.Core.Data, want.Core.Data)
				for m := range want.Factors {
					sameBits(t, fmt.Sprintf("shards=%d factor %d", shards, m), got.Factors[m].Data, want.Factors[m].Data)
				}
			}
		})
	}
}

// TestDistNetJoinFreeBitIdentityChain is the join-free route's determinism
// contract end to end. At one shard the engine computes
// core.DecomposeFactored's bits; at a fixed larger shard count its bits are
// core.DecomposeFactored{Shards}'s for any worker count and any kill; and between shard counts — between summation orders
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
		one := runDistNet(t, p, Options{Method: core.SELECT, Ranks: ranks, ZeroJoin: zero, Workers: 2, Shards: 1})
		sameBits(t, fmt.Sprintf("zero=%v: one shard vs core.DecomposeFactored", zero), one.Core.Data, inproc.Core.Data)

		sharded, err := core.DecomposeFactored(p, core.Options{Method: core.SELECT, Ranks: ranks, ZeroJoin: zero, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, fleet := range []Options{{Workers: 1}, {Workers: 3}, {Workers: 3, Kill: faults.KillSpec{Seed: 9, Kills: 2}}} {
			fleet.Method, fleet.Ranks, fleet.ZeroJoin, fleet.Shards = core.SELECT, ranks, zero, 4
			got := runDistNet(t, p, fleet)
			label := fmt.Sprintf("zero=%v workers=%d kills=%d: four shards vs core.DecomposeFactored", zero, fleet.Workers, fleet.Kill.Kills)
			sameBits(t, label+", core", got.Core.Data, sharded.Core.Data)
			for m := range sharded.Factors {
				sameBits(t, fmt.Sprintf("%s, factor %d", label, m), got.Factors[m].Data, sharded.Factors[m].Data)
			}
			if lost := got.Phase1.WorkersLost + got.Phase3.WorkersLost; lost != fleet.Kill.Kills {
				t.Fatalf("%s: %d workers lost", label, lost)
			}
		}
		if !sharded.Core.Equal(inproc.Core, 1e-9) {
			t.Fatalf("zero=%v: four shards differ from core.DecomposeFactored by more than 1e-9", zero)
		}
	}
}

// TestDistNetRejectsNonFiniteInput: the kernels take finite values only,
// and the worker is where the sub-tensors' bytes enter a process. A NaN
// planted behind the ingest guard of a quarantining sub-tensor — which the
// store writes as it is — fails the first task that loads it, and with it
// the campaign: an error naming the object, never a core, and never a
// retry of a task that can only fail again.
func TestDistNetRejectsNonFiniteInput(t *testing.T) {
	p := holed(tinyPartition(t, 1, 234), func(side, e int) bool { return side == 1 && e%4 == 0 })
	x2 := p.Sub2.Tensor
	x2.Vals[x2.NNZ()/2] = math.NaN()
	opts := Options{Method: core.AVG, Ranks: tucker.UniformRanks(5, 2), Workers: 2, Shards: 3, WorkDir: t.TempDir()}
	res, err := Decompose(context.Background(), p, opts)
	if err == nil {
		t.Fatalf("a NaN input decomposed to a core (finite: %v)", !math.IsNaN(res.Core.Norm()))
	}
	if msg := err.Error(); !strings.Contains(msg, objSubs[1]) || !strings.Contains(msg, store.ErrCorrupt.Error()) || strings.Contains(msg, "attempts") {
		t.Fatalf("err %q: want it to name %s as corrupt, on its first attempt", msg, objSubs[1])
	}
}

// TestDistNetBrokenProductStructureFallsBack — the name is the parent's;
// nothing falls back any more. A partition with holes (one quarantined
// cell; then every third cell of side 1 and a whole pivot group of side 2
// gone) stays join-free on the process engine: no stitch task, no join,
// holey_groups on the stage span, core.DecomposeFactored's bits at equal
// shard counts — under worker kills too — and core.DecomposeCtx's decomposition.
func TestDistNetBrokenProductStructureFallsBack(t *testing.T) {
	p := tinyPartition(t, 1, 230)
	ranks := tucker.UniformRanks(5, 2)
	copts := core.Options{Method: core.SELECT, Ranks: ranks}
	for name, broken := range map[string]*partition.Result{
		"one cell":   holed(p, func(side, e int) bool { return side == 2 && e == 11 }),
		"many cells": holed(p, func(side, e int) bool { return side == 1 && e%3 == 0 || side == 2 && e < 25 }),
	} {
		serial, err := core.DecomposeCtx(context.Background(), broken, copts)
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := core.DecomposeFactored(broken, core.Options{Method: core.SELECT, Ranks: ranks, Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, kills := range []int{0, 2} {
			trace := obs.New("campaign")
			got := runDistNet(t, broken, Options{
				Method: core.SELECT, Ranks: ranks, Workers: 3, Shards: 3,
				Kill: faults.KillSpec{Seed: 5, Kills: kills}, Span: trace.Root(),
			})
			label := fmt.Sprintf("%s, kills=%d", name, kills)
			if lost := got.Phase1.WorkersLost + got.Phase3.WorkersLost; lost != kills {
				t.Fatalf("%s: %d workers lost", label, lost)
			}
			if root := trace.Root(); root.Counter("factored") != 1 || root.Counter("holey_groups") < 1 || root.Find("phase3").Counter("tasks") != 3 {
				t.Fatalf("%s: want factored = 1, holey_groups > 0 and three project tasks:\n%s", label, root.Skeleton())
			}
			sameBits(t, label+": core vs core.DecomposeFactored", got.Core.Data, sharded.Core.Data)
			for m := range sharded.Factors {
				sameBits(t, fmt.Sprintf("%s: factor %d vs core.DecomposeFactored", label, m), got.Factors[m].Data, sharded.Factors[m].Data)
			}
			if cells := broken.JoinCells(false); cells != serial.Join.NNZ() {
				t.Fatalf("%s: JoinCells %d, stitched join %d", label, cells, serial.Join.NNZ())
			}
			got.Join = serial.Join // compared above, through JoinCells
			sameDecomposition(t, label+" vs core.DecomposeCtx", got.Result, serial, 1e-9)
		}
	}
}
