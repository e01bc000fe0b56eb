package m2td

// Benchmark harness: one testing.B benchmark per evaluation table of the
// paper (Tables II–VIII of Section VII), plus ablation micro-benchmarks
// for the design choices called out in DESIGN.md.
//
// Each table benchmark executes the same experiment code path the
// cmd/m2tdbench CLI uses to print the paper-style rows, and reports the
// headline accuracies as custom metrics. Benchmarks run at a reduced
// default scale (resolution 10) so `go test -bench=.` completes quickly;
// set M2TD_BENCH_RES (e.g. 16) to scale up. Ground truths are cached per
// process, so b.N iterations measure the decomposition pipeline, not the
// simulators.

import (
	"context"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/partition"
	"repro/internal/stitch"
	"repro/internal/tensor"
	"repro/internal/tucker"
)

// benchRes returns the benchmark resolution (default 10, override with
// M2TD_BENCH_RES).
func benchRes() int {
	if s := os.Getenv("M2TD_BENCH_RES"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 1 {
			return v
		}
	}
	return 10
}

// benchBase returns the shared base experiment configuration.
func benchBase() eval.Config {
	cfg := eval.DefaultConfig("double-pendulum")
	cfg.Res = benchRes()
	cfg.TimeSamples = benchRes()
	cfg.Rank = 3
	return cfg
}

// reportAccuracies attaches headline accuracies as custom metrics.
func reportAccuracies(b *testing.B, cmp *eval.Comparison) {
	b.Helper()
	if r, ok := cmp.Get(eval.SchemeSELECT); ok {
		b.ReportMetric(r.Accuracy, "select-acc")
	}
	if r, ok := cmp.Get(eval.SchemeRandom); ok {
		b.ReportMetric(r.Accuracy, "random-acc")
	}
}

// benchExperiment regenerates one registered comparison experiment at
// bench scale, b.N times, and returns the last run's rows.
func benchExperiment(b *testing.B, name string, ranks []int) []eval.Row {
	b.Helper()
	for _, exp := range eval.Experiments(benchBase(), []int{benchRes()}, ranks) {
		if exp.Name != name {
			continue
		}
		var rows []eval.Row
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if rows, err = exp.Run(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		return rows
	}
	b.Fatalf("no comparison experiment %q", name)
	return nil
}

// BenchmarkTable2 regenerates Table II: the six-scheme accuracy/time grid
// over resolutions and ranks for the double pendulum.
func BenchmarkTable2(b *testing.B) {
	rows := benchExperiment(b, "2", []int{2, 4})
	reportAccuracies(b, rows[len(rows)-1].Comparison)
}

// BenchmarkTable3 regenerates Table III: the D-M2TD phase-time split by
// server count.
func BenchmarkTable3(b *testing.B) {
	base := benchBase()
	workers := []int{1, 2, 4, 8}
	var last []eval.Table3Row
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := eval.Table3(context.Background(), base, workers)
		if err != nil {
			b.Fatal(err)
		}
		last = rows
	}
	b.StopTimer()
	if len(last) > 0 {
		final := last[len(last)-1]
		b.ReportMetric(float64(final.Phase3.Microseconds())/1000, "phase3-ms")
	}
}

// BenchmarkTable4 regenerates Table IV: the six-scheme comparison on the
// triple pendulum and Lorenz systems.
func BenchmarkTable4(b *testing.B) {
	reportAccuracies(b, benchExperiment(b, "4", nil)[0].Comparison)
}

// BenchmarkTable5 regenerates Table V: reduced budgets with join vs
// zero-join stitching.
func BenchmarkTable5(b *testing.B) {
	for _, row := range benchExperiment(b, "5", nil) {
		if row.Config.FreeFrac < 1 && row.Config.ZeroJoin {
			if r, ok := row.Get(eval.SchemeSELECT); ok {
				b.ReportMetric(r.Accuracy, "zerojoin-acc")
			}
		}
	}
}

// BenchmarkTable6 regenerates Table VI: the pivot-density (P) sweep.
func BenchmarkTable6(b *testing.B) { benchExperiment(b, "6", nil) }

// BenchmarkTable7 regenerates Table VII: the sub-ensemble-density (E)
// sweep.
func BenchmarkTable7(b *testing.B) { benchExperiment(b, "7", nil) }

// BenchmarkTable8 regenerates Table VIII: the pivot-parameter sweep over
// all five modes.
func BenchmarkTable8(b *testing.B) {
	if r, ok := benchExperiment(b, "8", nil)[0].Get(eval.SchemeSELECT); ok {
		b.ReportMetric(r.Accuracy, "pivot-t-acc")
	}
}

// --- Ablation benchmarks (design choices from DESIGN.md) ---

// benchPartition builds one PF-partitioned pair at bench scale.
func benchPartition(b *testing.B) (*partition.Result, []int) {
	b.Helper()
	return benchPartitionAt(b, benchRes())
}

// benchPartitionAt builds one full-density PF-partitioned pair at the
// given resolution.
func benchPartitionAt(b *testing.B, res int) (*partition.Result, []int) {
	b.Helper()
	space, err := eval.SpaceFor("double-pendulum", res, res)
	if err != nil {
		b.Fatal(err)
	}
	return partitionAt(b, space, space.TimeMode(), 1, 1, 1), tucker.UniformRanks(space.Order(), 3)
}

// BenchmarkM2TDVariants measures the three fusion strategies in isolation
// on a shared partition (the AVG/CONCAT/SELECT ablation).
func BenchmarkM2TDVariants(b *testing.B) {
	part, ranks := benchPartition(b)
	for _, m := range core.Methods() {
		b.Run(string(m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.DecomposeCtx(context.Background(), part, core.Options{Method: m, Ranks: ranks}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStitching measures join vs zero-join JE-stitching at a reduced
// sub-ensemble density (where they differ).
func BenchmarkStitching(b *testing.B) {
	space, err := eval.SpaceFor("double-pendulum", benchRes(), benchRes())
	if err != nil {
		b.Fatal(err)
	}
	part := partitionAt(b, space, space.TimeMode(), 1, 0.3, 2)
	b.Run("join", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stitch.Join(part)
		}
	})
	b.Run("zero-join", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stitch.ZeroJoin(part)
		}
	})
}

// joinStageRes pins the join-stage kernel benchmarks to the size of the
// m2tdperf dense-join workload — a 12⁵ space whose full-density join has
// 248,832 cells — whatever M2TD_BENCH_RES says, so their numbers explain
// that workload's stitch and core-recovery layers.
const joinStageRes = 12

// BenchmarkStitchJoin measures JE-stitching of the full-density res-12
// join: the block-template emission (one AppendBlock per sub-1 entry)
// against its allocate-and-fill floor.
func BenchmarkStitchJoin(b *testing.B) {
	part, _ := benchPartitionAt(b, joinStageRes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stitch.Join(part)
	}
}

// BenchmarkTransientCoreRecovery measures core recovery G = J ×ₙ U(n)ᵀ
// from a stitched join. The sparse TTM runs the entry scatter and compiles
// no plan, so the curve must be flat in workers: a curve that rises with
// workers is the plan-compile inversion returning (workers>=2 once ran 13x
// slower than workers=1 here).
func BenchmarkTransientCoreRecovery(b *testing.B) {
	part, ranks := benchPartitionAt(b, joinStageRes)
	res, err := core.DecomposeCtx(context.Background(), part, core.Options{Method: core.SELECT, Ranks: ranks})
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, 2, 4} {
		b.Run("workers="+strconv.Itoa(w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tucker.CoreFromFactorsWorkers(res.Join, res.Factors, w)
			}
		})
	}
}

// BenchmarkDecomposeDispatch measures the decomposition stage of a res-12
// campaign both ways: the join-free core every campaign takes
// (core.DecomposeFactored), and the materialised join no campaign takes
// (core.DecomposeCtx, the oracle) — what being join-free saves.
func BenchmarkDecomposeDispatch(b *testing.B) {
	part, ranks := benchPartitionAt(b, joinStageRes)
	copts := core.Options{Method: core.SELECT, Ranks: ranks}
	for _, route := range []struct {
		name      string
		decompose func(*partition.Result) (*core.Result, error)
	}{
		{"factored", func(p *partition.Result) (*core.Result, error) { return core.DecomposeFactored(p, copts) }},
		{"materialised", func(p *partition.Result) (*core.Result, error) {
			return core.DecomposeCtx(context.Background(), p, copts)
		}},
	} {
		b.Run(route.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := route.decompose(part)
				if err != nil {
					b.Fatal(err)
				}
				if (res.Join == nil) != (route.name == "factored") {
					b.Fatalf("%s route: Join = %v", route.name, res.Join)
				}
			}
		})
	}
}

// BenchmarkDistributedWorkers measures D-M2TD end-to-end at different
// server counts (Workers = Shards) on the join-free route every campaign
// takes (Table III's phase split is the materialised entry's, eval.Table3).
func BenchmarkDistributedWorkers(b *testing.B) {
	part, ranks := benchPartition(b)
	for _, w := range []int{1, 4, 16} {
		b.Run(strconv.Itoa(w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := core.DecomposeFactored(part, core.Options{Method: core.SELECT, Ranks: ranks, Workers: w, Shards: w})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConventionalHOSVD measures the baseline pipeline: HOSVD of a
// conventionally sampled sparse ensemble.
func BenchmarkConventionalHOSVD(b *testing.B) {
	cfg := Config{Resolution: benchRes(), Rank: 3, SkipAccuracy: true}
	report, err := RunCtx(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	budget := report.NumSims
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BaselineCtx(context.Background(), Config{Resolution: benchRes(), Rank: 3, SkipAccuracy: true}, "random", budget); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates the Table I configuration summary.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := eval.Table1(context.Background(), []string{"double-pendulum"}, []int{benchRes()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6 regenerates the Figure 6 density-boost report.
func BenchmarkFig6(b *testing.B) {
	base := benchBase()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Fig6(context.Background(), base, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnionBaseline measures the paper's naive union alternative
// (Section I-C) against which JE-stitching is motivated.
func BenchmarkUnionBaseline(b *testing.B) {
	part, _ := benchPartition(b)
	score, err := eval.Scorer(context.Background(), part.Space, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var acc float64
	for i := 0; i < b.N; i++ {
		r, err := eval.UnionResult(part, 3, score)
		if err != nil {
			b.Fatal(err)
		}
		acc = r.Accuracy
	}
	b.StopTimer()
	b.ReportMetric(acc, "union-acc")
}

// BenchmarkNoiseSweep measures the robustness ablation.
func BenchmarkNoiseSweep(b *testing.B) { benchExperiment(b, "noise", nil) }

// --- Shared-memory worker-pool benchmarks (internal/parallel) ---

// benchWorkerCounts returns the worker counts to sweep: serial, a couple
// of fixed fan-outs, and the machine's logical CPU count (deduplicated),
// so every run includes the "all cores" point regardless of hardware.
func benchWorkerCounts() []int {
	counts := []int{1, 2, 4}
	if p := runtime.NumCPU(); p != 1 && p != 2 && p != 4 {
		counts = append(counts, p)
	}
	return counts
}

// benchSparseTensor builds a deterministic sparse tensor large enough to
// cross the parallel kernels' serial-fallback thresholds.
func benchSparseTensor(shape tensor.Shape, nnz int, seed int64) *tensor.Sparse {
	rng := rand.New(rand.NewSource(seed))
	s := tensor.NewSparse(shape)
	idx := make([]int, shape.Order())
	for e := 0; e < nnz; e++ {
		for k, d := range shape {
			idx[k] = rng.Intn(d)
		}
		s.Append(idx, rng.NormFloat64())
	}
	return s
}

// BenchmarkParallelHOSVD measures the full truncated HOSVD of a sparse
// ensemble-scale tensor at increasing worker-pool sizes (per-mode factor
// extraction fans out via parallel.Do; Gram/TTM kernels fan out inside).
func BenchmarkParallelHOSVD(b *testing.B) {
	s := benchSparseTensor(tensor.Shape{40, 32, 32, 12}, 120000, 3)
	ranks := []int{6, 6, 6, 4}
	for _, w := range benchWorkerCounts() {
		b.Run("workers="+strconv.Itoa(w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tucker.HOSVDWorkers(s, ranks, w)
			}
		})
	}
}
