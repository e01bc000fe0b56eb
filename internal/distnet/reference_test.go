package distnet

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/partition"
	"repro/internal/tensor"
	"repro/internal/tucker"
)

// referenceStitchShard is the Phase 2 task body this engine ran before
// dist.JoinSpec.StitchShard (internal/dist keeps the same oracle for the
// kernel's own parity suite): the shard's cells copied out, grouped by
// pivot key, each side sorted lexicographically, one JoinGroup call per
// group in ascending key order, one Append per join cell.
func referenceStitchShard(spec dist.JoinSpec, x1, x2 *tensor.Sparse, shard, shards int) *tensor.Sparse {
	var free1, free2 [][]int
	if spec.ZeroJoin {
		free1, free2 = spec.FreeGrids()
	}
	groups := map[int]*[2][]dist.Cell{}
	for side, x := range []*tensor.Sparse{x1, x2} {
		x.Each(func(idx []int, v float64) {
			key := spec.PivotKey(idx)
			if key%shards != shard {
				return
			}
			if groups[key] == nil {
				groups[key] = new([2][]dist.Cell)
			}
			groups[key][side] = append(groups[key][side], dist.Cell{Idx: append([]int(nil), idx...), Val: v})
		})
	}
	keys := make([]int, 0, len(groups))
	for key := range groups {
		keys = append(keys, key)
	}
	sort.Ints(keys)
	j := tensor.NewSparse(spec.Shape)
	for _, key := range keys {
		g := groups[key]
		for _, side := range g {
			sort.Slice(side, func(a, b int) bool {
				for i := range side[a].Idx {
					if side[a].Idx[i] != side[b].Idx[i] {
						return side[a].Idx[i] < side[b].Idx[i]
					}
				}
				return false
			})
		}
		spec.JoinGroup(key, g[0], g[1], free1, free2, j.Append)
	}
	return j
}

// referencePhases computes, in process and through none of the engine's
// data plane, what a run at the given shard count must produce: Phase 1
// per (sub-tensor, mode), the driver-side fusion, the reference stitch per
// shard merged in ascending shard order, and the per-shard projections
// summed in ascending shard order.
func referencePhases(p *partition.Result, method core.Method, ranks []int, zero bool, shards int) *core.Result {
	ranks = tucker.ClipRanks(p.Space.Shape(), ranks)
	var fs, gs [2][]*mat.Matrix
	for si, sub := range []*partition.SubEnsemble{p.Sub1, p.Sub2} {
		for n, m := range sub.Modes {
			g := tensor.ModeGram(sub.Tensor, n)
			gs[si], fs[si] = append(gs[si], g), append(fs[si], mat.LeadingEigenvectors(g, ranks[m]))
		}
	}
	res := &core.Result{
		Factors: dist.FuseFactors(method, p.Config, p.Space.Order(), ranks, fs[0], gs[0], fs[1], gs[1]),
		Join:    tensor.NewSparse(p.Space.Shape()),
	}
	spec := dist.NewJoinSpec(p, zero)
	for s := 0; s < shards; s++ {
		shard := referenceStitchShard(spec, p.Sub1.Tensor, p.Sub2.Tensor, s, shards)
		shard.Each(res.Join.Append)
		partial := tensor.MultiTTMSparse(shard, tensor.TransposeAll(res.Factors))
		if res.Core == nil {
			res.Core = partial
		} else {
			res.Core = res.Core.Add(partial)
		}
	}
	return res
}

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
// last bit against the phase bodies it had before the data-plane rewrite:
// the join's cell order, and with it the core's summation order, are part
// of the engine's contract (a WorkDir resumes across versions, accuracy is
// a pure function of the seed).
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
			got := runDistNet(t, p, Options{Method: a.method, Ranks: ranks, ZeroJoin: a.zero, Workers: 2, Shards: 4})
			want := referencePhases(p, a.method, ranks, a.zero, 4)

			if len(got.Join.Idx) != len(want.Join.Idx) {
				t.Fatalf("join has %d indices, want %d", len(got.Join.Idx), len(want.Join.Idx))
			}
			for i := range want.Join.Idx {
				if got.Join.Idx[i] != want.Join.Idx[i] {
					t.Fatalf("join index %d is %d, want %d", i, got.Join.Idx[i], want.Join.Idx[i])
				}
			}
			sameBits(t, "join values", got.Join.Vals, want.Join.Vals)
			if cap(got.Join.Vals) != len(got.Join.Vals) {
				t.Fatalf("merged join not sized exactly: %d cells, cap %d", len(got.Join.Vals), cap(got.Join.Vals))
			}
			sameBits(t, "core", got.Core.Data, want.Core.Data)
			for m := range want.Factors {
				sameBits(t, fmt.Sprintf("factor %d", m), got.Factors[m].Data, want.Factors[m].Data)
			}
		})
	}
}
