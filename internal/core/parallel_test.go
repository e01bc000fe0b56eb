package core

// Regression tests: an M2TD decomposition must be BIT-IDENTICAL for
// Options.Workers=1 and Workers=8 (the ISSUE's acceptance criterion). The
// concurrent X₁/X₂ sub-decompositions and the parallel kernels underneath
// all partition their output index spaces and preserve the serial
// floating-point accumulation order, so the worker count can only change
// wall-clock, never a single bit of the result.

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/dynsys"
	"repro/internal/ensemble"
	"repro/internal/parallel"
	"repro/internal/partition"
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

// TestDecomposeJoinStaysPlanFree pins the join stage's dispatch rule from
// the pipeline side: the stitched join is a one-shot tensor, so core
// recovery must never compile a kernel plan for it — at any worker count,
// with real fan-out available — and the core must not depend on the
// worker count. The join is sized past the sparse TTM's planned-path
// threshold so the rule, not the size gate, is what
// keeps the plan cache untouched.
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
				// 4096 is the sparse TTM's planned-path size gate.
				const need = 4096
				if nnz := got.Join.NNZ(); nnz < need {
					t.Fatalf("join has %d cells, want >= %d to reach the planned-path size gate", nnz, need)
				}
				if builds, hits := got.Join.PlanStats(); builds != 0 || hits != 0 {
					t.Fatalf("workers=%d: core recovery touched the join's plan cache: %d builds, %d hits", w, builds, hits)
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
