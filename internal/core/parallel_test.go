package core

// Regression tests: an M2TD decomposition must be BIT-IDENTICAL for
// Options.Workers=1 and Workers=8 (the ISSUE's acceptance criterion). The
// concurrent X₁/X₂ sub-decompositions and the parallel kernels underneath
// all partition their output index spaces and preserve the serial
// floating-point accumulation order, so the worker count can only change
// wall-clock, never a single bit of the result.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/dynsys"
	"repro/internal/ensemble"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/stitch"
	"repro/internal/tensor"
	"repro/internal/tucker"
)

// resultEqualBits fails the test unless the two results carry bit-identical
// factors and cores.
func resultEqualBits(t *testing.T, name string, a, b *Result) {
	t.Helper()
	if len(a.Factors) != len(b.Factors) {
		t.Fatalf("%s: %d vs %d factors", name, len(a.Factors), len(b.Factors))
	}
	for n, u := range a.Factors {
		w := b.Factors[n]
		if u.Rows != w.Rows || u.Cols != w.Cols {
			t.Fatalf("%s: factor %d shape %dx%d vs %dx%d", name, n, u.Rows, u.Cols, w.Rows, w.Cols)
		}
		for i, v := range u.Data {
			if v != w.Data[i] {
				t.Fatalf("%s: factor %d element %d differs: %v vs %v", name, n, i, v, w.Data[i])
			}
		}
	}
	if !a.Core.Shape.Equal(b.Core.Shape) {
		t.Fatalf("%s: core shape %v vs %v", name, a.Core.Shape, b.Core.Shape)
	}
	for i, v := range a.Core.Data {
		if v != b.Core.Data[i] {
			t.Fatalf("%s: core element %d differs: %v vs %v", name, i, v, b.Core.Data[i])
		}
	}
}

func TestDecomposeWorkersBitStable(t *testing.T) {
	p := tinyPartition(t, 1, 424)
	ranks := tucker.UniformRanks(5, 3)
	for _, m := range Methods() {
		t.Run(string(m), func(t *testing.T) {
			want, err := DecomposeCtx(context.Background(), p, Options{Method: m, Ranks: ranks, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range []int{2, 8} {
				got, err := DecomposeCtx(context.Background(), p, Options{Method: m, Ranks: ranks, Workers: w})
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				resultEqualBits(t, string(m)+" w="+strconv.Itoa(w), want, got)
			}
		})
	}
}

func TestDecomposeZeroJoinWorkersBitStable(t *testing.T) {
	p := tinyPartition(t, 1, 425)
	ranks := tucker.UniformRanks(5, 3)
	want, err := DecomposeCtx(context.Background(), p, Options{Method: AVG, Ranks: ranks, ZeroJoin: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecomposeCtx(context.Background(), p, Options{Method: AVG, Ranks: ranks, ZeroJoin: true, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	resultEqualBits(t, "AVG zero-join", want, got)
}

// TestDecomposeJoinStaysPlanFree — the name is older than the removal of
// kernel plans; no kernel compiles one, and core recovery runs the entry
// scatter on the stitched join. With real fan-out available and a join of
// thousands of cells, the core must not depend on the worker count.
func TestDecomposeJoinStaysPlanFree(t *testing.T) {
	prev := parallel.SetFanoutCap(8)
	defer parallel.SetFanoutCap(prev)

	space := ensemble.NewSpace(dynsys.NewDoublePendulum(), 7, 4)
	ranks := tucker.UniformRanks(5, 3)
	for _, tc := range []struct {
		name     string
		freeFrac float64
		opts     Options
	}{
		{"join", 1, Options{}},
		{"zero-join", 0.5, Options{ZeroJoin: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := partition.DefaultConfig(5, 4, doublePendulumPairs)
			cfg.FreeFrac = tc.freeFrac
			p, err := partition.GenerateCtx(context.Background(), space, cfg, rand.New(rand.NewSource(431)), partition.SimOptions{})
			if err != nil {
				t.Fatal(err)
			}
			opts := tc.opts
			opts.Method, opts.Ranks = SELECT, ranks
			var want *Result
			for _, w := range []int{1, 2, 8} {
				opts.Workers = w
				got, err := DecomposeCtx(context.Background(), p, opts)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				const need = 4096
				if nnz := got.Join.NNZ(); nnz < need {
					t.Fatalf("join has %d cells, want >= %d", nnz, need)
				}
				if want == nil {
					want = got
					continue
				}
				resultEqualBits(t, tc.name+" w="+strconv.Itoa(w), want, got)
			}
		})
	}
}

// TestEachShardOneShardIsADirectCall: one shard runs on the caller with the
// whole worker budget and adds no pool task, so a one-shard decomposition
// is the unsharded one; several are one pool task each, in shard order
// at one worker.
func TestEachShardOneShardIsADirectCall(t *testing.T) {
	tasks := obs.Default.Counter("m2td_parallel_tasks_total", "")
	for _, c := range []struct{ shards, workers, tasks int }{{1, 4, 0}, {3, 1, 3}} {
		var got []int
		before := tasks.Value()
		eachShard(c.shards, c.workers, func(shard, workers int) {
			got = append(got, shard)
			if c.shards == 1 && workers != c.workers {
				t.Errorf("one shard got %d workers of %d", workers, c.workers)
			}
		})
		if added := tasks.Value() - before; added != int64(c.tasks) {
			t.Errorf("%d shards: %d pool tasks", c.shards, added)
		}
		if want := []int{0, 1, 2}[:c.shards]; !slices.Equal(got, want) {
			t.Errorf("%d shards ran %v", c.shards, got)
		}
	}
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

// diverged is x re-ingested through the quarantine (ensemble.SimStats.Keep)
// with entry e's value NaN: ingest drops it, so the copy has a hole where x
// had the cell.
func diverged(x *tensor.Sparse, e int) *tensor.Sparse {
	out := tensor.NewSparse(x.Shape)
	var stats ensemble.SimStats
	for i := range x.Vals {
		idx, v := x.Entry(i)
		if i == e {
			v = math.NaN()
		}
		if stats.Keep(v) {
			out.Append(idx, v)
		}
	}
	return out
}

// TestMergeJoinKeepsQuarantine: the stitch shards, concatenated, are the
// whole join's cells — full and ragged pivot groups, groups present on one
// side only, and a hole where ingest quarantined a divergent cell, which
// stays a hole: no shard emits a non-finite value. One shard is the join
// itself.
func TestMergeJoinKeepsQuarantine(t *testing.T) {
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
			x1 = diverged(x1, x1.NNZ()/3)
			for _, zero := range []bool{false, true} {
				label := fmt.Sprintf("%s free=%g zero=%v", name, freeFrac, zero)
				spec := stitch.NewSpec(p, zero)
				whole := spec.Shard(x1, x2, 0, 1)
				if whole.NNZ() == 0 {
					t.Fatalf("%s: whole join has no cells", label)
				}
				cells := make(map[string]uint64, whole.NNZ())
				for e := range whole.Vals {
					idx, v := whole.Entry(e)
					cells[fmt.Sprint(idx)] = math.Float64bits(v)
				}
				for _, shards := range []int{1, 3, 4} {
					parts := make([]*tensor.Sparse, shards)
					for s := range parts {
						parts[s] = spec.Shard(x1, x2, s, shards)
					}
					merged := mergeJoin(spec.Shape, parts)
					if shards == 1 && merged != parts[0] {
						t.Fatalf("%s: one shard was copied", label)
					}
					if merged.NNZ() != whole.NNZ() {
						t.Fatalf("%s: %d shards merge to %d cells, whole join %d", label, shards, merged.NNZ(), whole.NNZ())
					}
					for e := range merged.Vals {
						if idx, v := merged.Entry(e); cells[fmt.Sprint(idx)] != math.Float64bits(v) || math.IsNaN(v) {
							t.Fatalf("%s shards=%d: merged cell %v = %v is not the whole join's", label, shards, idx, v)
						}
					}
				}
			}
		}
	}
}
