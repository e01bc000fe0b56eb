package dist

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dynsys"
	"repro/internal/ensemble"
	"repro/internal/partition"
	"repro/internal/stitch"
	"repro/internal/tensor"
)

// The stitch kernel and its oracles live in internal/stitch. What D-M2TD
// adds to Phase 2 is the sharding, so that is what is pinned here: the
// reference for shard s of S is the whole join — stitch.Spec.Shard at 0 of
// 1, which is stitch.Join — cut down to the pivot keys ≡ s (mod S).

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

// shardOfWhole keeps, in order, the cells of the whole join whose pivot
// key lands in the shard.
func shardOfWhole(spec stitch.Spec, whole *tensor.Sparse, shard, shards int) *tensor.Sparse {
	pivots := make([]int, len(spec.Pivots))
	return thin(whole, func(_ int, idx []int) bool {
		for i, m := range spec.Pivots {
			pivots[i] = idx[m]
		}
		return spec.PivotKey(pivots)%shards != shard
	})
}

// TestStitchShardMatchesReference: the shards partition the one-shard
// join by pivot key and keep its order — full and ragged pivot groups,
// groups present on one side only. Putting them back together is core's
// (TestMergeJoinKeepsQuarantine).
func TestStitchShardMatchesReference(t *testing.T) {
	for name, cfg := range map[string]partition.Config{
		"time-pivot": partition.DefaultConfig(5, 4, doublePendulumPairs),
		"two-pivot":  {Pivots: []int{4, 1}, Free1: []int{3}, Free2: []int{0, 2}, PivotFrac: 1},
	} {
		for _, freeFrac := range []float64{1, 0.5} {
			cfg.FreeFrac = freeFrac
			p, err := partition.GenerateCtx(context.Background(), ensemble.NewSpace(dynsys.NewDoublePendulum(), 5, 5), cfg, rand.New(rand.NewSource(140)), partition.SimOptions{})
			if err != nil {
				t.Fatal(err)
			}
			x1, x2 := p.Sub1.Tensor, p.Sub2.Tensor
			if freeFrac < 1 {
				spec := stitch.NewSpec(p, false)
				x1 = thin(x1, func(e int, idx []int) bool { return e%7 == 0 || spec.PivotKey(idx) == 1 })
				x2 = thin(x2, func(e int, idx []int) bool { return e%5 == 0 || spec.PivotKey(idx) == 3 })
			}
			for _, zero := range []bool{false, true} {
				spec := stitch.NewSpec(p, zero)
				whole := spec.Shard(x1, x2, 0, 1)
				if whole.NNZ() == 0 {
					t.Fatalf("%s free=%g zero=%v: whole join has no cells", name, freeFrac, zero)
				}
				for _, shards := range []int{1, 3, 4} {
					for shard := range shards {
						t.Run(fmt.Sprintf("%s/free=%g/zero=%v/shard=%d of %d", name, freeFrac, zero, shard, shards), func(t *testing.T) {
							got := spec.Shard(x1, x2, shard, shards)
							want := shardOfWhole(spec, whole, shard, shards)
							if !slices.Equal(got.Idx, want.Idx) || !bitsEqual(got.Vals, want.Vals) {
								t.Fatalf("shard is not the whole join's cells at keys ≡ %d (mod %d), in order", shard, shards)
							}
						})
					}
				}
			}
		}
	}
}

func bitsEqual(got, want []float64) bool {
	return slices.EqualFunc(got, want, func(g, w float64) bool { return math.Float64bits(g) == math.Float64bits(w) })
}
