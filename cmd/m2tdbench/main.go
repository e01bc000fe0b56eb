// Command m2tdbench regenerates the paper's evaluation tables
// (Tables II–VIII of Section VII) at configurable scale and prints them in
// the paper's row/column layout.
//
// Usage:
//
//	m2tdbench -table all                  # every table at default scale
//	m2tdbench -table 2 -res 12,16,20 -rank 2,4,6
//	m2tdbench -table 3 -workers 1,2,4,8,16
//	m2tdbench -table 5 -res 16
//	m2tdbench -table 2,4,5 -csv out.csv   # comparison rows, one header
//	m2tdbench -table 2 -parallel 8        # 8-worker shared-memory pool
//	m2tdbench -run -res 12 -timeout 2m    # one pipeline with a deadline
//	m2tdbench -run -checkpoint ./ckpt     # rerun: restores what it finished
//	m2tdbench -run -fault-rate 0.1 -divergent-rate 0.02
//	m2tdbench -run -res 6 -workers 4      # in-process D-M2TD, 4 shards
//
// -run executes a single end-to-end pipeline instead of a table and
// prints the report, including the fault-tolerance accounting. -timeout
// bounds the whole run (the pipeline drains cooperatively and flushes
// its checkpoint on expiry or Ctrl-C); -checkpoint enables crash-safe
// restarts, a rerun restoring what it finished; -fault-rate and
// -divergent-rate inject seeded transient and divergent simulation faults.
//
// -workers sweeps the server (shard) count of the D-M2TD algorithm (Table
// III) and, with -run, runs the in-process D-M2TD at its first value — the
// same bits as -dist-procs N -dist-shards <that value>; -parallel sets
// the real shared-memory worker-pool size used by the decomposition
// kernels (0 = all CPUs, 1 = serial) and never changes results — only
// wall-clock.
//
// Default scale substitutes resolution 60–80 → 12–20 and rank 5/10/20 →
// 2/4/6 (see DESIGN.md); pass larger -res/-time/-rank values to approach
// paper scale, memory permitting.
package main

import (
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"time"

	m2td "repro"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/parallel"
)

func main() {
	var (
		table   = flag.String("table", "all", "comma-separated tables to regenerate: "+tableNames()+", or 'all'")
		res     = flag.String("res", "", "comma-separated resolutions (table 2) or single base resolution")
		timeS   = flag.Int("time", 0, "time-mode size (defaults to the resolution)")
		rank    = flag.String("rank", "", "comma-separated ranks (table 2) or single base rank")
		workers = flag.String("workers", "", "comma-separated D-M2TD server counts (table 3); with -run the first value runs in-process D-M2TD at that shard count")
		seed    = flag.Int64("seed", eval.DefaultSeed, "sampling seed")
		seeds   = flag.Int("seeds", 0, "run a multi-seed sweep of the base configuration with this many seeds instead of a table")
		csvOut  = flag.String("csv", "", "also export every comparison table's rows as CSV to this file, under one header")
		estim   = flag.Int("estimate", 0, "paper-scale mode: score accuracy on this many sampled ground-truth fibers (required beyond res ≈24)")
		par     = flag.Int("parallel", 0, "shared-memory worker-pool size for the decomposition kernels (0 = all CPUs, 1 = serial; results are identical for any value)")

		runOne     = flag.Bool("run", false, "execute a single end-to-end pipeline (instead of a table) and print the report")
		timeout    = flag.Duration("timeout", 0, "with -run: overall deadline; the pipeline drains cooperatively and flushes its checkpoint on expiry (0 = none)")
		checkpoint = flag.String("checkpoint", "", "with -run: directory for crash-safe simulation checkpoints; a checkpoint of the same simulations there is restored")
		faultRate  = flag.Float64("fault-rate", 0, "with -run: injected transient-failure rate per simulation (seeded, deterministic)")
		divRate    = flag.Float64("divergent-rate", 0, "with -run: injected divergent (non-finite trajectory) rate per simulation")
		faultSeed  = flag.Int64("fault-seed", 1, "with -run: fault-injection seed")

		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics, expvar /debug/vars, and /debug/pprof/ on this address for the process lifetime (e.g. 127.0.0.1:0 for a free port)")
		traceOut    = flag.String("trace-out", "", "with -run: record a stage-span trace and write it as JSONL to this file (summarize with cmd/tracecat)")

		distProcs   = flag.Int("dist-procs", 0, "with -run: decompose on this many real worker PROCESSES (the internal/distnet engine) instead of in-process")
		distShards  = flag.Int("dist-shards", 0, "with -run: fixed task-shard count, the determinism unit (0 = -dist-procs)")
		distAddr    = flag.String("dist-addr", "", "with -run: coordinator listen address (default 127.0.0.1:0)")
		distDir     = flag.String("dist-dir", "", "with -run: shared artifact catalog directory (default: a temp dir; a stable path enables resume)")
		killWorkers = flag.Int("kill-workers", 0, "with -run -dist-procs: SIGKILL this many workers mid-task at seeded points (kill-and-recover drill)")
		killSeed    = flag.Int64("kill-seed", 0, "with -kill-workers: kill-lottery seed (0 = -seed)")
	)
	m2td.MaybeDistWorker()
	flag.Parse()
	parallel.SetDefaultWorkers(*par)

	stopMetrics, err := startMetrics(*metricsAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "m2tdbench:", err)
		os.Exit(1)
	}
	defer stopMetrics()

	// One interruptible root for whatever runs: Ctrl-C cancels a -run
	// pipeline and every -table's simulation fan-outs cooperatively.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *runOne {
		cfg := m2td.Config{
			Resolution:         firstInt(*res),
			TimeSamples:        *timeS,
			Rank:               firstInt(*rank),
			Seed:               *seed,
			Parallel:           *par,
			Workers:            firstInt(*workers),
			CheckpointDir:      *checkpoint,
			SkipAccuracy:       *estim == 0 && firstInt(*res) > 24,
			AccuracySampleSims: *estim,
			Trace:              *traceOut != "",
		}
		if *faultRate > 0 || *divRate > 0 {
			cfg.Faults = &faults.Config{Seed: *faultSeed, TransientRate: *faultRate, DivergentRate: *divRate}
		}
		if *distProcs > 0 {
			cfg.Distributed = &m2td.DistributedConfig{
				Workers:     *distProcs,
				Shards:      *distShards,
				Addr:        *distAddr,
				WorkDir:     *distDir,
				KillWorkers: *killWorkers,
				KillSeed:    *killSeed,
			}
		}
		if err := runPipeline(ctx, os.Stdout, cfg, *timeout, *traceOut); err != nil {
			stopMetrics()
			fmt.Fprintln(os.Stderr, "m2tdbench:", err)
			os.Exit(1)
		}
		return
	}

	base := eval.Config{}
	singleRes := firstInt(*res)
	if singleRes > 0 {
		base = eval.DefaultConfig("double-pendulum")
		base.Res = singleRes
		base.TimeSamples = singleRes
		if *timeS > 0 {
			base.TimeSamples = *timeS
		}
		if r := firstInt(*rank); r > 0 {
			base.Rank = r
		}
		base.Seed = *seed
		base.EstimateSims = *estim
	}

	if *seeds > 0 {
		if err := runSeeds(ctx, base, *seeds); err != nil {
			fmt.Fprintln(os.Stderr, "m2tdbench:", err)
			os.Exit(1)
		}
		return
	}

	names := strings.Split(*table, ",")
	if *table == "all" {
		names = nil
		for _, t := range tables[:allTables] {
			names = append(names, t.name)
		}
	}
	sw := sweeps{res: ints(*res), ranks: ints(*rank), workers: ints(*workers)}
	if err := runTables(ctx, os.Stdout, names, base, sw, *csvOut); err != nil {
		fmt.Fprintln(os.Stderr, "m2tdbench:", err)
		os.Exit(1)
	}
}

// runPipeline executes one end-to-end pipeline under main's interruptible
// context (Ctrl-C and -timeout both cancel cooperatively: in-flight
// simulations finish, the checkpoint is flushed, and the run reports a
// wrapped context error) and prints to w the report — headed by the
// resolution and rank the run used — with its fault-tolerance accounting.
func runPipeline(ctx context.Context, w io.Writer, cfg m2td.Config, timeout time.Duration, traceOut string) error {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	start := time.Now()
	report, err := m2td.RunCtx(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "system=%s res=%d rank=%d seed=%d\n",
		report.Space.Sys.Name(), report.Space.Res, slices.Max(report.Decomposition.Core.Shape), cfg.Seed)
	if !math.IsNaN(report.Accuracy) {
		fmt.Fprintf(w, "accuracy           %.4f\n", report.Accuracy)
	}
	fmt.Fprintf(w, "simulations        %d (executed %d, restored %d, retried %d, failed %d)\n",
		report.NumSims, report.ExecutedSims, report.RestoredSims, report.RetriedSims, report.FailedSims)
	fmt.Fprintf(w, "quarantined cells  %d\n", report.QuarantinedCells)
	fmt.Fprintf(w, "effective density  %.4f / %.4f\n", report.EffectiveDensity1, report.EffectiveDensity2)
	if fs := report.FaultStats; fs != nil {
		fmt.Fprintf(w, "injected faults    transient sims %d (failures %d), divergent %d, panicked %d, delayed %d\n",
			fs.TransientSims, fs.TransientFailures, fs.DivergentSims, fs.PanickedSims, fs.DelayedSims)
	}
	fmt.Fprintf(w, "join cells         %d\n", report.JoinCells)
	if ds := report.Distributed; ds != nil {
		fmt.Fprintf(w, "dist workers       %d (lost %d, requeues %d, skipped tasks %d)\n",
			ds.Workers, ds.WorkersLost, ds.Requeues, ds.TasksSkipped)
	}
	fmt.Fprintf(w, "core fingerprint   %016x\n", decompFingerprint(report.Decomposition))
	fmt.Fprintf(w, "sim %v, decomp %v, total %v\n",
		report.SimTime.Round(time.Millisecond), report.DecompTime.Round(time.Millisecond),
		time.Since(start).Round(time.Millisecond))
	return writeTrace(traceOut, report)
}

// decompFingerprint hashes the decomposition's exact bits (core then
// factors, FNV-1a over each float64's bit pattern), so two runs can be
// compared for BIT-identity from the shell — the CI chaos job diffs the
// fingerprint of a kill-workers run against an unkilled one.
func decompFingerprint(res *core.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, v := range res.Core.Data {
		word(v)
	}
	for _, f := range res.Factors {
		binary.LittleEndian.PutUint64(buf[:], uint64(f.Rows)<<32|uint64(f.Cols))
		h.Write(buf[:])
		for _, v := range f.Data {
			word(v)
		}
	}
	return h.Sum64()
}

// runSeeds executes the multi-seed sweep of the base configuration.
func runSeeds(ctx context.Context, base eval.Config, n int) error {
	if base.Res == 0 {
		base = eval.DefaultConfig("double-pendulum")
	}
	seedList := make([]int64, n)
	for i := range seedList {
		seedList[i] = base.Seed + int64(i)
	}
	sweep := eval.SeedSweep(base, seedList)
	rows, err := sweep.Run(ctx)
	if err != nil {
		return err
	}
	sweep.Render(os.Stdout, rows)
	return nil
}

// sweeps are the comma-list flags: the value lists a table sweeps over in
// place of its defaults (nil keeps the default).
type sweeps struct{ res, ranks, workers []int }

// table is one -table name. A nil print means a scheme comparison: the
// experiment of that name in eval's registry, run, rendered and exported the
// one way. The other four tables have row shapes of their own, print
// themselves and export nothing.
type table struct {
	name  string
	print func(ctx context.Context, out io.Writer, base eval.Config, sw sweeps) error
}

// tables is the registry behind -table, in help order: the lookup, the help
// text, the unknown-table error and 'all' (its first allTables entries, the
// paper's tables and figure) all read this list.
var tables = []table{
	{"1", table1}, {"2", nil}, {"3", table3}, {"4", nil}, {"5", nil}, {"6", nil}, {"7", nil}, {"8", nil},
	{"fig6", fig6}, {"noise", nil}, {"ranks", nil}, {"extended", nil}, {"pivotselect", pivotSelect},
}

const allTables = 9

func tableNames() string {
	names := make([]string, len(tables))
	for i, t := range tables {
		names[i] = t.name
	}
	return strings.Join(names, ", ")
}

// runTables regenerates the named tables in order, each followed by its
// wall-clock footer, and — with a csvPath — exports the rows of every
// comparison table among them to that file under one header. Rows of the
// tables that finished are exported even when a later one fails.
func runTables(ctx context.Context, out io.Writer, names []string, base eval.Config, sw sweeps, csvPath string) (err error) {
	var csv io.Writer
	if csvPath != "" {
		f, openErr := os.Create(csvPath)
		if openErr != nil {
			return openErr
		}
		defer func() {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
		csv = f
	}
	var rows []eval.Row
	for i, name := range names {
		if i > 0 {
			fmt.Fprintln(out)
		}
		start := time.Now()
		r, runErr := run(ctx, out, name, base, sw)
		if runErr != nil {
			err = fmt.Errorf("table %s: %w", name, runErr)
			break
		}
		rows = append(rows, r...)
		fmt.Fprintf(out, "\n[table %s regenerated in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}
	if csv != nil && len(rows) > 0 {
		if xerr := eval.ExportCSV(csv, rows); err == nil {
			err = xerr
		}
	}
	return err
}

// run prints one table and returns the comparison rows it printed, if any.
func run(ctx context.Context, out io.Writer, name string, base eval.Config, sw sweeps) ([]eval.Row, error) {
	for _, t := range tables {
		if t.name != name {
			continue
		}
		if t.print != nil {
			return nil, t.print(ctx, out, base, sw)
		}
		for _, exp := range eval.Experiments(base, sw.res, sw.ranks) {
			if exp.Name == name {
				rows, err := exp.Run(ctx)
				if err == nil {
					exp.Render(out, rows)
				}
				return rows, err
			}
		}
		return nil, fmt.Errorf("eval registers no comparison experiment %q", name)
	}
	return nil, fmt.Errorf("unknown table %q (want %s, or all)", name, tableNames())
}

func table1(ctx context.Context, out io.Writer, _ eval.Config, sw sweeps) error {
	rows, err := eval.Table1(ctx, nil, sw.res)
	if err == nil {
		eval.RenderTable1(out, rows)
	}
	return err
}

func table3(ctx context.Context, out io.Writer, base eval.Config, sw sweeps) error {
	rows, err := eval.Table3(ctx, base, sw.workers)
	if err == nil {
		eval.RenderTable3(out, rows)
	}
	return err
}

func fig6(ctx context.Context, out io.Writer, base eval.Config, _ sweeps) error {
	rows, err := eval.Fig6(ctx, base, nil)
	if err == nil {
		eval.RenderFig6(out, rows)
	}
	return err
}

func pivotSelect(ctx context.Context, out io.Writer, base eval.Config, _ sweeps) error {
	if base.Res == 0 {
		base = eval.DefaultConfig("double-pendulum")
	}
	scores, err := eval.SelectPivot(ctx, base.System, min(base.Res, 8), base.Rank, 200, eval.DefaultSeed)
	if err == nil {
		eval.RenderPivotScores(out, base.System, scores)
	}
	return err
}

// ints parses a comma-separated integer list; empty input yields nil
// (which selects each table's default sweep).
func ints(s string) []int {
	if s == "" {
		return nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fmt.Fprintf(os.Stderr, "m2tdbench: bad integer %q\n", part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

// firstInt returns the first integer of a comma-separated list, or 0.
func firstInt(s string) int {
	vs := ints(s)
	if len(vs) == 0 {
		return 0
	}
	return vs[0]
}
