package stitch

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dynsys"
	"repro/internal/ensemble"
	"repro/internal/partition"
	"repro/internal/tensor"
)

// The per-group stitch (joinGroup) is the oracle Spec.Shard is pinned to,
// shard by shard and in emission order: the path both D-M2TD engines ran
// before the shard kernel, kept here only.

// cell is one sub-tensor cell in SUB-LOCAL index order (pivot modes
// leading, as partition.SubEnsemble tensors are laid out).
type cell struct {
	idx []int
	val float64
}

// decodePivotKey inverts PivotKey into pivot-mode coordinates.
func (s Spec) decodePivotKey(key int) []int {
	idx := make([]int, len(s.Pivots))
	for i := len(idx) - 1; i >= 0; i-- {
		size := s.Shape[s.Pivots[i]]
		idx[i], key = key%size, key/size
	}
	return idx
}

// enumerate lists every coordinate combination over the given modes.
func enumerate(shape tensor.Shape, modes []int) [][]int {
	var out [][]int
	cur := make([]int, len(modes))
	var walk func(pos int)
	walk = func(pos int) {
		if pos == len(modes) {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := 0; i < shape[modes[pos]]; i++ {
			cur[pos] = i
			walk(pos + 1)
		}
	}
	walk(0)
	return out
}

// sampledCellSet returns the set of free coordinates present in one side
// of a pivot group.
func sampledCellSet(side []cell, k int) map[string]bool {
	out := make(map[string]bool, len(side))
	for _, c := range side {
		out[freeKey(c.idx[k:])] = true
	}
	return out
}

// joinGroup stitches one pivot group: side1 and side2 hold the group's
// cells from each sub-tensor, sorted lexicographically by index;
// free1All/free2All are both sides' full free-coordinate grids (only
// consulted when ZeroJoin is set). Join cells are emitted in full-space
// index order derived deterministically from the inputs: matched pairs
// first (side1-major), then side1's zero-join extensions against side2's
// unsampled free configurations, then side2's.
func (s Spec) joinGroup(key int, side1, side2 []cell, free1All, free2All [][]int, emit func(idx []int, val float64)) {
	k := len(s.Pivots)
	pivotIdx := s.decodePivotKey(key)
	emitCell := func(f1, f2 []int, v float64) {
		full := make([]int, len(s.Shape))
		for i, m := range s.Pivots {
			full[m] = pivotIdx[i]
		}
		for i, m := range s.Free1 {
			full[m] = f1[i]
		}
		for i, m := range s.Free2 {
			full[m] = f2[i]
		}
		emit(full, v)
	}
	for _, c1 := range side1 {
		for _, c2 := range side2 {
			emitCell(c1.idx[k:], c2.idx[k:], (c1.val+c2.val)/2)
		}
	}
	if !s.ZeroJoin {
		return
	}
	sampled1 := sampledCellSet(side1, k)
	sampled2 := sampledCellSet(side2, k)
	for _, f2 := range free2All {
		if sampled2[freeKey(f2)] {
			continue
		}
		for _, c1 := range side1 {
			emitCell(c1.idx[k:], f2, c1.val/2)
		}
	}
	for _, f1 := range free1All {
		if sampled1[freeKey(f1)] {
			continue
		}
		for _, c2 := range side2 {
			emitCell(f1, c2.idx[k:], c2.val/2)
		}
	}
}

// sortCellsLex orders cells lexicographically by index — the within-group
// order joinGroup expects.
func sortCellsLex(cs []cell) {
	sort.Slice(cs, func(a, b int) bool {
		ia, ib := cs[a].idx, cs[b].idx
		for i := range ia {
			if ia[i] != ib[i] {
				return ia[i] < ib[i]
			}
		}
		return false
	})
}

// referenceStitchShard is the shard stitch the process engine ran before
// Spec.Shard, kept as its oracle: every cell of the shard is copied out,
// cells are grouped by pivot key, each side of each group is sorted
// lexicographically, and the groups go through joinGroup in ascending key
// order, one Append per join cell — whose guard drops and counts the
// non-finite ones when either input quarantines.
func referenceStitchShard(spec Spec, x1, x2 *tensor.Sparse, shard, shards int) *tensor.Sparse {
	var free1, free2 [][]int
	if spec.ZeroJoin {
		free1, free2 = enumerate(spec.Shape, spec.Free1), enumerate(spec.Shape, spec.Free2)
	}
	groups := map[int]*[2][]cell{}
	for side, x := range []*tensor.Sparse{x1, x2} {
		x.Each(func(idx []int, v float64) {
			key := spec.PivotKey(idx)
			if key%shards != shard {
				return
			}
			if groups[key] == nil {
				groups[key] = new([2][]cell)
			}
			groups[key][side] = append(groups[key][side], cell{idx: append([]int(nil), idx...), val: v})
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
		sortCellsLex(g[0])
		sortCellsLex(g[1])
		spec.joinGroup(key, g[0], g[1], free1, free2, j.Append)
	}
	return j
}

// stitchConfigs are the two partition geometries of the parity suite: the
// evaluation default (time as the single pivot) and a two-pivot split
// whose pivot modes are not the leading full-space modes.
var stitchConfigs = map[string]partition.Config{
	"time-pivot": partition.DefaultConfig(5, 4, doublePendulumPairs),
	"two-pivot":  {Pivots: []int{4, 1}, Free1: []int{3}, Free2: []int{0, 2}, PivotFrac: 1},
}

// stitchPartition generates a double-pendulum partition with res values
// per parameter and per time mode (the m2tdperf workloads' shape).
func stitchPartition(t testing.TB, cfg partition.Config, res int, freeFrac float64, seed int64) *partition.Result {
	t.Helper()
	cfg.FreeFrac = freeFrac
	p, err := partition.GenerateCtx(context.Background(), ensemble.NewSpace(dynsys.NewDoublePendulum(), res, res), cfg, rand.New(rand.NewSource(seed)), partition.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// thin returns x without the entries drop selects.
func thin(x *tensor.Sparse, drop func(e int, idx []int) bool) *tensor.Sparse {
	out := tensor.NewSparse(x.Shape)
	for e := 0; e < x.NNZ(); e++ {
		if idx, v := x.Entry(e); !drop(e, idx) {
			out.Append(idx, v)
		}
	}
	return out
}

func sameShard(t *testing.T, got, want *tensor.Sparse) {
	t.Helper()
	if len(got.Vals) != len(want.Vals) || len(got.Idx) != len(want.Idx) {
		t.Fatalf("%d cells (%d indices), reference has %d (%d)", len(got.Vals), len(got.Idx), len(want.Vals), len(want.Idx))
	}
	for e := range want.Vals {
		gi, gv := got.Entry(e)
		wi, wv := want.Entry(e)
		if !slices.Equal(gi, wi) || math.Float64bits(gv) != math.Float64bits(wv) {
			t.Fatalf("cell %d: %v = %v, reference %v = %v", e, gi, gv, wi, wv)
		}
	}
	if cap(got.Vals) != len(got.Vals) || cap(got.Idx) != len(got.Idx) {
		t.Fatalf("storage not sized exactly: %d/%d cells, %d/%d indices", len(got.Vals), cap(got.Vals), len(got.Idx), cap(got.Idx))
	}
}

// TestStitchShardMatchesReference: Spec.Shard must reproduce the old
// path's shard cell for cell, bit for bit and in order — full and ragged
// pivot groups and groups present on one side only.
func TestStitchShardMatchesReference(t *testing.T) {
	for name, cfg := range stitchConfigs {
		for _, freeFrac := range []float64{1, 0.5} {
			p := stitchPartition(t, cfg, 5, freeFrac, 140)
			x1, x2 := p.Sub1.Tensor, p.Sub2.Tensor
			if freeFrac < 1 {
				// Ragged groups (every 7th / 5th cell missing) and one-sided
				// ones (pivot key 1 only on side 2, key 3 only on side 1).
				spec := NewSpec(p, false)
				x1 = thin(x1, func(e int, idx []int) bool { return e%7 == 0 || spec.PivotKey(idx) == 1 })
				x2 = thin(x2, func(e int, idx []int) bool { return e%5 == 0 || spec.PivotKey(idx) == 3 })
			}
			for _, zero := range []bool{false, true} {
				spec := NewSpec(p, zero)
				for _, shards := range []int{1, 3, 4} {
					total := 0
					for shard := 0; shard < shards; shard++ {
						t.Run(fmt.Sprintf("%s/free=%g/zero=%v/shard=%d of %d", name, freeFrac, zero, shard, shards), func(t *testing.T) {
							got := spec.Shard(x1, x2, shard, shards)
							sameShard(t, got, referenceStitchShard(spec, x1, x2, shard, shards))
							total += got.NNZ()
						})
					}
					if total == 0 {
						t.Fatalf("%s free=%g zero=%v: %d shards stitched no cell", name, freeFrac, zero, shards)
					}
				}
			}
		}
	}
}

// TestZeroJoinFourFreeModes: the kernel has no limit on free modes per
// side — it compares free coordinates as slices and never packs them into
// a key, where four 20-bit fields would overflow an int. A hand-built
// order-9 spec, half of each side's cells sampled, against the per-group
// oracle.
func TestZeroJoinFourFreeModes(t *testing.T) {
	spec := Spec{
		Shape:    tensor.Shape{2, 2, 2, 2, 2, 2, 2, 2, 2},
		Pivots:   []int{4},
		Free1:    []int{0, 1, 2, 3},
		Free2:    []int{5, 6, 7, 8},
		ZeroJoin: true,
	}
	rng := rand.New(rand.NewSource(143))
	side := func() *tensor.Sparse {
		x := tensor.NewSparse(tensor.Shape{2, 2, 2, 2, 2})
		idx := make([]int, 5)
		for lin := 0; lin < 32; lin++ {
			if x.Shape.MultiIndex(lin, idx); rng.Intn(2) == 0 {
				x.Append(idx, rng.NormFloat64())
			}
		}
		return x
	}
	x1, x2 := side(), side()
	got := spec.Shard(x1, x2, 0, 1)
	sameShard(t, got, referenceStitchShard(spec, x1, x2, 0, 1))
	plain := spec
	plain.ZeroJoin = false
	if matched := plain.Shard(x1, x2, 0, 1).NNZ(); got.NNZ() <= matched {
		t.Fatalf("zero-join stitched %d cells, the plain join %d: no extension was emitted", got.NNZ(), matched)
	}
}

// TestShardRejectsOutOfShapePivot: a sub-tensor whose pivot coordinates
// do not fit the spec's shape has no pivot group to land in — refused
// loudly, not stitched into a neighbouring group.
func TestShardRejectsOutOfShapePivot(t *testing.T) {
	spec := Spec{Shape: tensor.Shape{2, 3, 2}, Pivots: []int{1}, Free1: []int{0}, Free2: []int{2}}
	x1, x2 := tensor.NewSparse(tensor.Shape{4, 2}), tensor.NewSparse(tensor.Shape{3, 2})
	x1.Append([]int{3, 0}, 1)
	x2.Append([]int{2, 1}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("pivot coordinate 3 of a size-3 pivot mode was stitched")
		}
	}()
	spec.Shard(x1, x2, 0, 1)
}

// TestShardCountBeyondKeys: more shards than pivot keys leaves one key to a
// shard and the shards past the last key empty — up to a count near MaxInt,
// which a spec off the wire may carry and the group count must not overflow
// on.
func TestShardCountBeyondKeys(t *testing.T) {
	p := stitchPartition(t, stitchConfigs["time-pivot"], 5, 1, 144)
	spec := NewSpec(p, true)
	keys := spec.gridSize(spec.Pivots)
	for _, shards := range []int{keys + 3, math.MaxInt} {
		for _, shard := range []int{0, keys - 1, keys, shards - 1} {
			got := spec.Shard(p.Sub1.Tensor, p.Sub2.Tensor, shard, shards)
			sameShard(t, got, referenceStitchShard(spec, p.Sub1.Tensor, p.Sub2.Tensor, shard, shards))
			if (got.NNZ() > 0) != (shard < keys) {
				t.Fatalf("shard %d of %d over %d keys stitched %d cells", shard, shards, keys, got.NNZ())
			}
		}
	}
}

// stitchShardAllocs is Spec.Shard's allocation budget (13 today): an id
// and a group-offset list per side, the output's header and two COO
// arrays, the template and value buffers, two grid cursors and the
// group-walk closures — nothing per group or per cell.
const stitchShardAllocs = 16

func TestStitchShardAllocationBudget(t *testing.T) {
	for _, zero := range []bool{false, true} {
		var allocs []float64
		for _, res := range []int{4, 8} {
			p := stitchPartition(t, stitchConfigs["time-pivot"], res, 1, 141)
			if zero {
				p = stitchPartition(t, stitchConfigs["time-pivot"], res, 0.5, 141)
			}
			spec := NewSpec(p, zero)
			// 20 runs: AllocsPerRun's integer average absorbs a stray
			// background allocation.
			allocs = append(allocs, testing.AllocsPerRun(20, func() {
				spec.Shard(p.Sub1.Tensor, p.Sub2.Tensor, 0, 2)
			}))
		}
		if allocs[0] != allocs[1] || allocs[0] > stitchShardAllocs {
			t.Fatalf("zero=%v: %v allocations at res 4 and %v at res 8, want equal and <= %d", zero, allocs[0], allocs[1], stitchShardAllocs)
		}
	}
}

// BenchmarkStitchShard is the process engine's Phase 2 task at the
// dist-procs workload's size: shard 0 of 4 at res 8 (8 192 join cells).
func BenchmarkStitchShard(b *testing.B) {
	for _, arm := range []struct {
		name     string
		zero     bool
		freeFrac float64
	}{{"join", false, 1}, {"zero-join", true, 0.5}} {
		b.Run(arm.name, func(b *testing.B) {
			p := stitchPartition(b, stitchConfigs["time-pivot"], 8, arm.freeFrac, 142)
			spec := NewSpec(p, arm.zero)
			cells := spec.Shard(p.Sub1.Tensor, p.Sub2.Tensor, 0, 4).NNZ()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := spec.Shard(p.Sub1.Tensor, p.Sub2.Tensor, 0, 4).NNZ(); got != cells {
					b.Fatalf("%d cells, want %d", got, cells)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cells), "ns/cell")
		})
	}
}
