// Package m2td reproduces "M2TD: Multi-Task Tensor Decomposition for
// Sparse Ensemble Simulations" (Li, Candan, Sapino; ICDE 2018) as a
// self-contained Go library.
//
// The package is the public facade over the implementation packages:
//
//   - internal/dynsys    — double pendulum, triple pendulum, Lorenz, SEIR
//   - internal/ensemble  — parameter spaces; Random/Grid/Slice/LHS samplers
//   - internal/partition — PF-partitioning into pivot-sharing sub-systems
//   - internal/stitch    — JE-stitching (join and zero-join)
//   - internal/tucker    — HOSVD / ST-HOSVD / HOOI Tucker decomposition
//   - internal/cp        — CP-ALS decomposition
//   - internal/core      — M2TD-AVG / -CONCAT / -SELECT (+ factored core)
//   - internal/dist      — 3-phase distributed M2TD (D-M2TD) phase bodies
//   - internal/increment — streaming M2TD with exact Gram maintenance
//   - internal/eval      — the paper's experiments (Tables I–VIII, Fig. 6)
//
// The one-call entry point is Run: partition → simulate → decompose →
// evaluate (the join is stitched only when the decomposition needs it):
//
//	report, err := m2td.Run(m2td.Config{
//	    System:     "double-pendulum",
//	    Resolution: 12,
//	    Rank:       4,
//	    Method:     "select",
//	})
//
// Lower-level building blocks (Partition, Stitch, Decompose) are exposed
// for custom pipelines, and the eval package's table runners are wrapped
// by the cmd/m2tdbench tool.
package m2td

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/distnet"
	"repro/internal/dynsys"
	"repro/internal/ensemble"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/stitch"
	"repro/internal/store"
	"repro/internal/tensor"
	"repro/internal/tucker"
)

// Config describes one end-to-end M2TD pipeline run.
type Config struct {
	// System is the dynamical system: SystemDoublePendulum (default),
	// SystemTriplePendulum, SystemLorenz, or SystemSEIR. Untyped string
	// literals ("double-pendulum", …) keep assigning to it unchanged; use
	// ParseSystem to validate free-form input eagerly.
	System System
	// Resolution is the per-parameter grid resolution (default 12).
	Resolution int
	// TimeSamples is the time-mode size (defaults to Resolution).
	TimeSamples int
	// Rank is the uniform per-mode Tucker rank (default 4).
	Rank int
	// Method selects the pivot fusion: MethodAVG, MethodCONCAT, or
	// MethodSELECT (default). Untyped string literals and the historical
	// aliases ("average", "M2TD-SELECT", …) keep working; use ParseMethod
	// to validate free-form input eagerly.
	Method Method
	// Pivot names the pivot mode: "t" (default), a parameter name such as
	// "phi1", or "auto" to pick the best pivot by a coarse pilot run
	// (eval.SelectPivot).
	Pivot string
	// PivotDensity and SubEnsembleDensity are the paper's P and E knobs in
	// (0, 1]; zero values mean 1.
	PivotDensity, SubEnsembleDensity float64
	// ZeroJoin selects zero-join JE-stitching.
	ZeroJoin bool
	// Workers > 0 runs the 3-phase D-M2TD (internal/dist) on the
	// in-process pool instead of the serial algorithm, with that many
	// "servers": Workers is the shard count of the stitch and core
	// phases, so the result is a pure function of it — bit-identical to
	// Distributed{Shards: Workers} at any core count, and equal to the
	// serial decomposition up to floating-point summation order.
	// Incompatible with Factored, Sketch and Distributed.
	Workers int
	// Distributed, when non-nil, runs D-M2TD on real worker PROCESSES —
	// the internal/distnet coordinator/worker engine over localhost TCP
	// and a shared artifact catalog — instead of in-process goroutines.
	// Mutually exclusive with Workers, Factored, and Sketch. The result
	// is bit-identical for any worker count (and under worker kills) at
	// a fixed Distributed.Shards; it matches the serial decomposition up
	// to floating-point summation order.
	Distributed *DistributedConfig
	// Parallel is the shared-memory worker-pool size for the decomposition
	// hot path (sparse TTM, Gram accumulation, the HOSVD mode loop, and
	// the concurrent X₁/X₂ sub-decompositions). 0 uses all CPUs
	// (runtime.GOMAXPROCS); 1 forces serial execution. Unlike Workers —
	// which shards D-M2TD's 3-phase algorithm and so fixes the float
	// summation order — Parallel only changes how the same algorithm is
	// scheduled on cores:
	// results are bit-identical for any Parallel value.
	Parallel int
	// SkipAccuracy skips ground-truth construction (which simulates the
	// entire parameter space) and leaves Report.Accuracy as NaN.
	SkipAccuracy bool
	// AccuracySampleSims > 0 estimates the accuracy from that many
	// uniformly sampled ground-truth fibers instead of materialising the
	// full simulation-space tensor — required at paper-scale resolutions
	// where the exact metric needs tens of GB.
	AccuracySampleSims int
	// Factored REQUIRES the join-free core (core.DecomposeFactored), the
	// route a run takes anyway while the partition has its P×E product
	// structure: once a failed or quarantined simulation broke it, the run
	// fails with core.ErrNoProductStructure instead of materialising J.
	// Incompatible with Workers (D-M2TD materialises J by design).
	Factored bool
	// Sketch enables the randomized sketch fast path: the decomposition
	// runs on biased random sketches of the sub-tensors and join instead
	// of the exact inputs, trading a graceful accuracy loss for a
	// proportional cut in every kernel's nnz. Orthogonal to Method — all
	// three fusion strategies sketch identically. Incompatible with
	// Workers and Factored (both need the exact cell sets). Baseline runs
	// sketch the encoded tensor before HOSVD.
	Sketch SketchConfig
	// Seed drives all sampling randomness (default 1).
	Seed int64

	// SimTimeout bounds the simulation stage (partition fan-out or
	// baseline encoding) with a per-stage deadline; 0 means no limit. On
	// expiry the stage drains cooperatively, flushes any checkpoint, and
	// the run fails with a wrapped context.DeadlineExceeded.
	SimTimeout time.Duration
	// DecompTimeout bounds the decomposition stage; 0 means no limit.
	DecompTimeout time.Duration
	// Retry is the per-simulation retry policy for transient failures.
	// The zero value means up to 3 attempts with default backoff.
	Retry faults.RetryPolicy
	// Faults, when non-nil, wraps the dynamical system with the seeded
	// deterministic fault-injection harness — transient errors, divergent
	// (non-finite) trajectories, panics, and latency at the configured
	// rates. The run's Report then carries the exact failure accounting.
	Faults *faults.Config
	// CheckpointDir, when non-empty, enables crash-safe persistence of
	// completed simulations into an internal/store catalog at that
	// directory (atomic temp+rename+CRC writes).
	CheckpointDir string
	// CheckpointEvery is the number of completed simulations between
	// checkpoint saves (default 64).
	CheckpointEvery int
	// Resume loads a compatible checkpoint from CheckpointDir and skips
	// every simulation it already holds. Checkpoints written by a
	// different configuration are ignored.
	Resume bool

	// Trace records a stage-span trace of the run (partition → decompose
	// → evaluate, with per-sub-tensor and per-mode sub-spans) on
	// Report.Trace. Span structure and counters are deterministic for any
	// Parallel value; only durations and gauges vary. Disabled tracing
	// costs one nil check per instrumented site.
	Trace bool
}

// SketchConfig configures the randomized sketch fast path
// (tucker.Sketch): each stored cell is kept with probability proportional
// to its magnitude and scaled by the inverse of that probability, an
// unbiased estimator of the tensor at a fraction of the nnz. The zero
// value disables sketching.
type SketchConfig struct {
	// KeepFrac is the expected fraction of stored cells each sketch
	// retains, in (0, 1]. 0 disables sketching; 1 keeps every cell
	// (bit-identical decomposition, with a full-keep SketchStats report).
	KeepFrac float64
	// Seed drives the per-cell keep decisions through a counter-based
	// hash — the sketch is a pure function of (tensor, KeepFrac, Seed),
	// identical for any Parallel value. 0 defaults to Config.Seed.
	Seed int64
}

// DistributedConfig configures the multi-process D-M2TD engine
// (internal/distnet): a coordinator in this process plus Workers child
// processes connected over localhost TCP, moving data through an
// internal/store catalog. Worker processes are spawned by re-executing
// the current binary, which must call MaybeDistWorker first thing in
// main (cmd/m2tdworker and cmd/m2tdbench do).
type DistributedConfig struct {
	// Workers is the worker-process count (default 1). The campaign
	// survives losing up to Workers-1 of them.
	Workers int
	// Shards fixes the phase-2/3 task count — the determinism unit: at a
	// fixed Shards the output is bit-identical for any Workers value and
	// any worker deaths. Default: Workers.
	Shards int
	// Addr is the coordinator listen address (default "127.0.0.1:0").
	Addr string
	// WorkDir is the shared artifact catalog. Empty uses a fresh
	// temporary directory, removed after the run; set it to a stable path
	// to enable resume-from-durable-artifacts across runs.
	WorkDir string
	// KillWorkers > 0 SIGKILLs that many workers mid-task at seeded
	// injection points (the faults.KillSpec chaos lottery) — the
	// kill-and-recover drill. Must stay below Workers.
	KillWorkers int
	// KillSeed seeds the kill lottery (0 defaults to Config.Seed).
	KillSeed int64
}

// DistStats is the distributed engine's accounting on the Report.
type DistStats struct {
	// Workers is the spawned worker-process count; WorkersLost counts
	// the ones quarantined (killed, hung, or corrupt) during the run.
	Workers, WorkersLost int
	// Requeues counts task re-leases; TasksSkipped counts tasks
	// satisfied by an already-durable artifact.
	Requeues, TasksSkipped int
	// Phase1/2/3 are the engine's per-phase wall-clock times (Table
	// III's split, with real IPC overhead).
	Phase1, Phase2, Phase3 time.Duration
}

// Report is the outcome of a pipeline run.
type Report struct {
	// Accuracy is the paper's metric 1 − ‖X̃−Y‖F/‖Y‖F against the full
	// ground-truth tensor (NaN when SkipAccuracy is set).
	Accuracy float64
	// NumSims is the number of simulation runs spent.
	NumSims int
	// JoinCells is the join's stored-cell count (the paper's density formula if no J was built).
	JoinCells int
	// SimTime is the wall-clock spent running simulations; DecompTime
	// covers sub-decomposition, stitching, and core recovery.
	SimTime, DecompTime time.Duration
	// Decomposition holds the factors and core; Join is nil unless the run had to build J.
	Decomposition *core.Result
	// Space is the underlying parameter space (exposes the shape, ground
	// truth, and mode names).
	Space *ensemble.Space

	// Fault-tolerance accounting (see faults and partition). Every
	// simulation of the campaign is either executed, restored from a
	// checkpoint, or failed; retried simulations and quarantined cells
	// are recorded on top, so the counters exactly cover every injected
	// or natural fault.
	ExecutedSims     int
	RestoredSims     int
	RetriedSims      int
	FailedSims       int
	QuarantinedCells int
	// EffectiveDensity1/2 are the sub-ensembles' stored-cell densities
	// after failures and quarantine (degraded relative to the sampled
	// density when simulations were lost).
	EffectiveDensity1, EffectiveDensity2 float64
	// FaultStats snapshots the injector's accounting when Config.Faults
	// was set (nil otherwise).
	FaultStats *faults.Stats
	// SketchStats accounts for the sketch passes when Config.Sketch was
	// enabled (nil otherwise). Baseline runs fill only the Join stats —
	// there is one tensor to sketch.
	SketchStats *core.SketchReport
	// Distributed carries the multi-process engine's accounting when
	// Config.Distributed was set (nil otherwise).
	Distributed *DistStats
	// Partition is the PF-partitioned pair the decomposition consumed
	// (nil for Baseline runs).
	Partition *partition.Result
	// Trace is the run's stage-span trace when Config.Trace was set (nil
	// otherwise). Its root counters mirror this report's deterministic
	// fields; serialize it with WriteTrace and inspect the JSONL with
	// cmd/tracecat.
	Trace *obs.Trace
}

// normalize fills config defaults.
func (c Config) normalize() Config {
	if c.System == "" {
		c.System = "double-pendulum"
	}
	if c.Resolution == 0 {
		c.Resolution = 12
	}
	if c.TimeSamples == 0 {
		c.TimeSamples = c.Resolution
	}
	if c.Rank == 0 {
		c.Rank = 4
	}
	if c.Method == "" {
		c.Method = "select"
	}
	if c.Pivot == "" {
		c.Pivot = "t"
	}
	if c.PivotDensity == 0 {
		c.PivotDensity = 1
	}
	if c.SubEnsembleDensity == 0 {
		c.SubEnsembleDensity = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Sketch.KeepFrac != 0 && c.Sketch.Seed == 0 {
		c.Sketch.Seed = c.Seed
	}
	return c
}

// resolved carries the validated products of one Config: the normalized
// config, the internal fusion method, and the (possibly fault-wrapped)
// parameter space. Run, Baseline, and the Ctx entry points all validate
// through here, so every path accepts and rejects configurations
// identically.
type resolved struct {
	cfg      Config
	method   core.Method
	space    *ensemble.Space
	injector *faults.Injector
}

// resolve normalizes and validates the config.
func (c Config) resolve() (resolved, error) {
	cfg := c.normalize()
	method, err := cfg.Method.core()
	if err != nil {
		return resolved{}, err
	}
	if f := cfg.Sketch.KeepFrac; f < 0 || f > 1 {
		return resolved{}, fmt.Errorf("m2td: Sketch.KeepFrac %v outside (0, 1]", f)
	}
	if cfg.Sketch.KeepFrac > 0 {
		if cfg.Workers > 0 {
			return resolved{}, fmt.Errorf("m2td: Sketch and Workers are mutually exclusive (D-M2TD shuffles the exact cell sets)")
		}
		if cfg.Factored {
			return resolved{}, fmt.Errorf("m2td: Sketch and Factored are mutually exclusive (the sketch breaks the P×E product structure)")
		}
	}
	if cfg.Workers > 0 && cfg.Factored {
		return resolved{}, fmt.Errorf("m2td: Factored and Workers are mutually exclusive (D-M2TD materialises the join by design)")
	}
	if d := cfg.Distributed; d != nil {
		if cfg.Workers > 0 {
			return resolved{}, fmt.Errorf("m2td: Distributed and Workers are mutually exclusive (pick one D-M2TD engine)")
		}
		if cfg.Factored {
			return resolved{}, fmt.Errorf("m2td: Distributed and Factored are mutually exclusive (D-M2TD materialises the join by design)")
		}
		if cfg.Sketch.KeepFrac > 0 {
			return resolved{}, fmt.Errorf("m2td: Distributed and Sketch are mutually exclusive (D-M2TD shuffles the exact cell sets)")
		}
		workers := d.Workers
		if workers < 1 {
			workers = 1
		}
		if d.KillWorkers < 0 || d.KillWorkers >= workers {
			return resolved{}, fmt.Errorf("m2td: Distributed.KillWorkers %d must be in [0, Workers)", d.KillWorkers)
		}
	}
	space, injector, err := cfg.space()
	if err != nil {
		return resolved{}, err
	}
	return resolved{cfg: cfg, method: method, space: space, injector: injector}, nil
}

// Systems lists the built-in dynamical systems.
func Systems() []string {
	out := make([]string, 0, 4)
	for _, s := range dynsys.All() {
		out = append(out, s.Name())
	}
	return out
}

// space returns the parameter space for the config and, when fault
// injection is enabled, the injector wrapping its system. Fault-wrapped
// runs always build a FRESH space: eval.SpaceFor caches spaces
// process-wide, and an injector must never leak into other runs' cached
// references or ground truths.
func (c Config) space() (*ensemble.Space, *faults.Injector, error) {
	if c.Faults == nil {
		sp, err := eval.SpaceFor(string(c.System), c.Resolution, c.TimeSamples)
		return sp, nil, err
	}
	sys, err := dynsys.ByName(string(c.System))
	if err != nil {
		return nil, nil, err
	}
	inj := faults.New(*c.Faults)
	return ensemble.NewSpace(inj.Wrap(sys), c.Resolution, c.TimeSamples), inj, nil
}

// fingerprint identifies the simulation-generating configuration for
// checkpoint compatibility: any field that changes which simulations run,
// their identities, or their outputs is included, so a resumed campaign
// never trusts a checkpoint written by a different configuration.
func (c Config) fingerprint(pivot int) string {
	fp := fmt.Sprintf("v1|%s|res=%d|t=%d|pivot=%d|P=%g|E=%g|seed=%d",
		c.System, c.Resolution, c.TimeSamples, pivot, c.PivotDensity, c.SubEnsembleDensity, c.Seed)
	return fp + c.faultsSuffix()
}

// stageCtx derives a per-stage context: a deadline when the stage has a
// timeout, a plain child otherwise.
func stageCtx(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return context.WithCancel(ctx)
}

// Run executes the full M2TD pipeline described by the config. It is
// RunCtx on a background context — no cancellation, no stage deadlines
// beyond those in the config.
func Run(cfg Config) (*Report, error) {
	//lint:allow ctxprop -- documented legacy wrapper: the non-ctx facade is the root of its own context tree
	return RunCtx(context.Background(), cfg)
}

// MaybeDistWorker turns the current process into a distributed D-M2TD
// worker when the M2TD_DISTNET_ADDR environment is present, and never
// returns in that case. Any binary that may run with Config.Distributed
// set must call it first thing in main: the coordinator spawns workers
// by re-executing its own binary.
func MaybeDistWorker() { distnet.MaybeWorker() }

// RunCtx executes the full M2TD pipeline with cooperative cancellation:
// when ctx is cancelled (or a configured stage deadline expires) the
// pipeline stops at the next stage boundary — in-flight simulations and
// kernels finish, workers are joined, completed work is checkpointed —
// and a wrapped context error identifying the stage is returned.
func RunCtx(ctx context.Context, cfg Config) (*Report, error) {
	r, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	cfg, method, space, injector := r.cfg, r.method, r.space, r.injector
	var trace *obs.Trace
	if cfg.Trace {
		trace = obs.New("run")
	}
	root := trace.Root()
	pivot := -1
	if cfg.Pivot == "auto" {
		pilotRes := cfg.Resolution
		if pilotRes > 8 {
			pilotRes = 8
		}
		scores, err := eval.SelectPivot(string(cfg.System), pilotRes, cfg.Rank, 150, cfg.Seed)
		if err != nil {
			return nil, err
		}
		pivot = scores[0].Pivot
	} else {
		for m := 0; m < space.Order(); m++ {
			if space.ModeName(m) == cfg.Pivot {
				pivot = m
				break
			}
		}
	}
	if pivot == -1 {
		return nil, fmt.Errorf("m2td: unknown pivot %q for system %s", cfg.Pivot, cfg.System)
	}

	pcfg := partition.DefaultConfig(space.Order(), pivot, eval.PairsFor(string(cfg.System)))
	pcfg.PivotFrac = cfg.PivotDensity
	pcfg.FreeFrac = cfg.SubEnsembleDensity

	// Crash-safe checkpointing: completed simulations persist into an
	// internal/store catalog, tagged with the config fingerprint.
	var ck *partition.Checkpoint
	if cfg.CheckpointDir != "" {
		st, err := store.Open(cfg.CheckpointDir)
		if err != nil {
			return nil, fmt.Errorf("m2td: checkpoint catalog: %w", err)
		}
		ck = &partition.Checkpoint{
			Store:       st,
			Fingerprint: cfg.fingerprint(pivot),
			Every:       cfg.CheckpointEvery,
			Resume:      cfg.Resume,
		}
	}

	simStart := time.Now()
	pspan := root.Start("partition")
	pdone := pspan.WithVitals(map[string]func() int64{"strips": parallel.Strips})
	sctx, cancelSim := stageCtx(ctx, cfg.SimTimeout)
	part, err := partition.GenerateCtx(sctx, space, pcfg, rand.New(rand.NewSource(cfg.Seed)), partition.SimOptions{
		Workers:    cfg.Parallel,
		Retry:      cfg.Retry,
		Checkpoint: ck,
		Span:       pspan,
	})
	cancelSim()
	pdone()
	if err != nil {
		return nil, fmt.Errorf("m2td: simulation stage: %w", err)
	}
	simTime := time.Since(simStart)

	ranks := tucker.UniformRanks(space.Order(), cfg.Rank)
	dspan := root.Start("decompose")
	ddone := dspan.WithVitals(map[string]func() int64{"strips": parallel.Strips})
	opts := core.Options{
		Method:   method,
		Ranks:    ranks,
		ZeroJoin: cfg.ZeroJoin,
		Workers:  cfg.Parallel,
		Sketch:   core.SketchSpec{KeepFrac: cfg.Sketch.KeepFrac, Seed: cfg.Sketch.Seed},
		Span:     dspan,
	}
	dctx, cancelDecomp := stageCtx(ctx, cfg.DecompTimeout)
	defer cancelDecomp()
	var res *core.Result
	var distStats *DistStats
	switch {
	case cfg.Distributed != nil:
		dc := cfg.Distributed
		workDir := dc.WorkDir
		if workDir == "" {
			tmp, err := os.MkdirTemp("", "m2td-distnet-*")
			if err != nil {
				return nil, fmt.Errorf("m2td: distributed work dir: %w", err)
			}
			defer os.RemoveAll(tmp)
			workDir = tmp
		}
		killSeed := dc.KillSeed
		if killSeed == 0 {
			killSeed = cfg.Seed
		}
		d, err := distnet.Decompose(dctx, part, distnet.Options{
			Method:   method,
			Ranks:    ranks,
			ZeroJoin: cfg.ZeroJoin,
			Workers:  dc.Workers,
			Shards:   dc.Shards,
			Addr:     dc.Addr,
			WorkDir:  workDir,
			Kill:     faults.KillSpec{Seed: killSeed, Kills: dc.KillWorkers},
			Retry:    cfg.Retry,
			Span:     dspan,
		})
		if err != nil {
			return nil, fmt.Errorf("m2td: decomposition stage: %w", err)
		}
		res = d.Result
		distStats = &DistStats{
			Workers:      len(d.Workers),
			WorkersLost:  d.Phase1.WorkersLost + d.Phase2.WorkersLost + d.Phase3.WorkersLost,
			Requeues:     d.Phase1.Requeues + d.Phase2.Requeues + d.Phase3.Requeues,
			TasksSkipped: d.Phase1.Skipped + d.Phase2.Skipped + d.Phase3.Skipped,
			Phase1:       d.Phase1.Duration,
			Phase2:       d.Phase2.Duration,
			Phase3:       d.Phase3.Duration,
		}
	case cfg.Workers > 0:
		if err := dctx.Err(); err != nil {
			return nil, fmt.Errorf("m2td: decomposition stage: %w", err)
		}
		res, err = dist.Decompose(part, dist.Options{Options: opts, Workers: cfg.Workers})
		if err != nil {
			return nil, err
		}
	default:
		res, err = decomposeInProcess(dctx, part, opts, cfg.Factored)
		if err != nil {
			return nil, fmt.Errorf("m2td: decomposition stage: %w", err)
		}
	}
	ddone()
	cancelDecomp()

	joinCells := part.JoinCells(cfg.ZeroJoin) // density formula, unless a J exists to count
	if res.Join != nil {
		joinCells = res.Join.NNZ()
	}
	report := &Report{
		Accuracy:          nan(),
		NumSims:           part.NumSims,
		JoinCells:         joinCells,
		SimTime:           simTime,
		DecompTime:        res.SubDecompTime + res.StitchTime + res.CoreTime,
		Decomposition:     res,
		Space:             space,
		ExecutedSims:      part.Stats.ExecutedSims,
		RestoredSims:      part.Stats.RestoredSims,
		RetriedSims:       part.Stats.RetriedSims,
		FailedSims:        part.Stats.FailedSims,
		QuarantinedCells:  part.Stats.QuarantinedCells,
		EffectiveDensity1: part.Sub1.Tensor.Density(),
		EffectiveDensity2: part.Sub2.Tensor.Density(),
		SketchStats:       res.Sketch,
		Distributed:       distStats,
		Partition:         part,
	}
	if injector != nil {
		s := injector.Stats()
		report.FaultStats = &s
	}
	espan := root.Start("evaluate")
	edone := espan.WithVitals(nil)
	switch {
	case cfg.SkipAccuracy:
		espan.Set("skipped", 1)
	case ctx.Err() != nil:
		return nil, fmt.Errorf("m2td: evaluation stage: %w", ctx.Err())
	case cfg.AccuracySampleSims > 0:
		espan.Set("sampled_sims", int64(cfg.AccuracySampleSims))
		model := eval.TuckerModel{Core: res.Core, Factors: res.Factors}
		acc, err := eval.EstimateAccuracy(space, model, cfg.AccuracySampleSims, rand.New(rand.NewSource(cfg.Seed+100)))
		if err != nil {
			return nil, err
		}
		report.Accuracy = acc
	default:
		report.Accuracy = eval.Accuracy(res.Reconstruct(), space.GroundTruth())
	}
	edone()
	report.finishTrace(trace, cfg)
	runsTotal.Inc()
	return report, nil
}

// Baseline runs one conventional sampling scheme — "random", "grid",
// "slice" (the paper's Section IV baselines) or "lhs" (Latin hypercube,
// from the experiment-design literature the paper cites) — with the given
// simulation budget and returns its accuracy and decomposition time: the
// comparison target for Run.
func Baseline(cfg Config, scheme string, budget int) (*Report, error) {
	//lint:allow ctxprop -- documented legacy wrapper: the non-ctx facade is the root of its own context tree
	return BaselineCtx(context.Background(), cfg, scheme, budget)
}

// BaselineCtx is Baseline with cooperative cancellation and the
// fault-tolerance runtime (retry, panic capture, divergence quarantine)
// on the encoding fan-out. Stage deadlines follow Config.SimTimeout and
// Config.DecompTimeout.
func BaselineCtx(ctx context.Context, cfg Config, scheme string, budget int) (*Report, error) {
	r, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	cfg, space, injector := r.cfg, r.space, r.injector
	var trace *obs.Trace
	if cfg.Trace {
		trace = obs.New("baseline")
	}
	root := trace.Root()
	var sims []ensemble.Sim
	switch strings.ToLower(scheme) {
	case "random":
		sims = ensemble.RandomSample(space, budget, rand.New(rand.NewSource(cfg.Seed)))
	case "grid":
		sims = ensemble.GridSample(space, budget)
	case "slice":
		sims = ensemble.SliceSample(space, budget, rand.New(rand.NewSource(cfg.Seed)))
	case "lhs", "latin", "latin-hypercube":
		sims = ensemble.LatinHypercubeSample(space, budget, rand.New(rand.NewSource(cfg.Seed)))
	default:
		return nil, fmt.Errorf("m2td: unknown baseline scheme %q", scheme)
	}
	simStart := time.Now()
	sspan := root.Start("simulate")
	sdone := sspan.WithVitals(map[string]func() int64{"strips": parallel.Strips})
	sctx, cancelSim := stageCtx(ctx, cfg.SimTimeout)
	se, estats, err := ensemble.EncodeCtx(sctx, space, sims, ensemble.EncodeOptions{Workers: cfg.Parallel, Retry: cfg.Retry, Span: sspan})
	cancelSim()
	sdone()
	if err != nil {
		return nil, fmt.Errorf("m2td: simulation stage: %w", err)
	}
	simTime := time.Since(simStart)

	ranks := tucker.UniformRanks(space.Order(), cfg.Rank)
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("m2td: decomposition stage: %w", err)
	}
	dspan := root.Start("decompose")
	ddone := dspan.WithVitals(map[string]func() int64{"strips": parallel.Strips})
	var dec tucker.Decomposition
	var sketchReport *core.SketchReport
	if f := cfg.Sketch.KeepFrac; f > 0 {
		var stats tucker.SketchStats
		dec, stats, err = tucker.SketchedHOSVD(se.Tensor, ranks, tucker.SketchOptions{
			KeepFrac: f, Seed: cfg.Sketch.Seed, Workers: cfg.Parallel, Span: dspan,
		})
		if err != nil {
			return nil, err
		}
		sketchReport = &core.SketchReport{KeepFrac: f, Seed: cfg.Sketch.Seed, Join: stats}
	} else {
		dec = tucker.HOSVDSpan(se.Tensor, ranks, cfg.Parallel, dspan)
	}
	ddone()
	decompTime := time.Since(start)

	report := &Report{
		Accuracy:          nan(),
		NumSims:           len(sims),
		JoinCells:         se.Tensor.NNZ(),
		SimTime:           simTime,
		DecompTime:        decompTime,
		Space:             space,
		ExecutedSims:      estats.ExecutedSims,
		RetriedSims:       estats.RetriedSims,
		FailedSims:        estats.FailedSims,
		QuarantinedCells:  estats.QuarantinedCells,
		EffectiveDensity1: se.Tensor.Density(),
		EffectiveDensity2: se.Tensor.Density(),
		SketchStats:       sketchReport,
	}
	if injector != nil {
		s := injector.Stats()
		report.FaultStats = &s
	}
	espan := root.Start("evaluate")
	edone := espan.WithVitals(nil)
	switch {
	case cfg.SkipAccuracy:
		espan.Set("skipped", 1)
	case ctx.Err() != nil:
		return nil, fmt.Errorf("m2td: evaluation stage: %w", ctx.Err())
	case cfg.AccuracySampleSims > 0:
		espan.Set("sampled_sims", int64(cfg.AccuracySampleSims))
		model := eval.TuckerModel{Core: dec.Core, Factors: dec.Factors}
		acc, err := eval.EstimateAccuracy(space, model, cfg.AccuracySampleSims, rand.New(rand.NewSource(cfg.Seed+100)))
		if err != nil {
			return nil, err
		}
		report.Accuracy = acc
	default:
		report.Accuracy = eval.Accuracy(dec.Reconstruct(), space.GroundTruth())
	}
	edone()
	report.finishTrace(trace, cfg)
	runsTotal.Inc()
	return report, nil
}

// finishTrace closes out a run's trace: the root span's counters mirror
// the report's deterministic fields (so a serialized trace is
// self-describing and tests can assert counters == report), the trace is
// finished, and it is attached to the report. A nil trace is a no-op.
func (r *Report) finishTrace(trace *obs.Trace, cfg Config) {
	if trace == nil {
		return
	}
	root := trace.Root()
	root.Set("sims", int64(r.NumSims))
	root.Set("join_cells", int64(r.JoinCells))
	root.Set("sims_executed", int64(r.ExecutedSims))
	root.Set("sims_restored", int64(r.RestoredSims))
	root.Set("sims_retried", int64(r.RetriedSims))
	root.Set("sims_failed", int64(r.FailedSims))
	root.Set("cells_quarantined", int64(r.QuarantinedCells))
	root.Set("resolution", int64(cfg.Resolution))
	root.Set("rank", int64(cfg.Rank))
	trace.Finish()
	r.Trace = trace
}

// PartitionOptions configures PartitionCtx. The zero value means: full
// densities, seed 1, default worker count, default retry policy, no
// tracing.
type PartitionOptions struct {
	// PivotFrac and FreeFrac are the paper's P and E density knobs in
	// (0, 1]; zero values mean 1.
	PivotFrac, FreeFrac float64
	// Seed drives the sampling randomness (default 1).
	Seed int64
	// Parallel is the shared worker-pool size for the simulation fan-out
	// (0 = all CPUs, 1 = serial).
	Parallel int
	// Retry is the per-simulation retry policy for transient failures.
	Retry faults.RetryPolicy
	// Trace, when non-nil, receives a "partition" stage span (with
	// sub1/sub2 children) under its root.
	Trace *obs.Trace
}

// PartitionCtx PF-partitions a space and simulates both sub-ensembles
// with cooperative cancellation, retry, divergence quarantine, and
// optional tracing; a building block for custom pipelines.
func PartitionCtx(ctx context.Context, space *ensemble.Space, pivot int, opts PartitionOptions) (*partition.Result, error) {
	if opts.PivotFrac == 0 {
		opts.PivotFrac = 1
	}
	if opts.FreeFrac == 0 {
		opts.FreeFrac = 1
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	pcfg := partition.DefaultConfig(space.Order(), pivot, eval.PairsFor(space.Sys.Name()))
	pcfg.PivotFrac = opts.PivotFrac
	pcfg.FreeFrac = opts.FreeFrac
	span := opts.Trace.Root().Start("partition")
	done := span.WithVitals(map[string]func() int64{"strips": parallel.Strips})
	defer done()
	return partition.GenerateCtx(ctx, space, pcfg, rand.New(rand.NewSource(opts.Seed)), partition.SimOptions{
		Workers: opts.Parallel,
		Retry:   opts.Retry,
		Span:    span,
	})
}

// Partition PF-partitions a space and simulates both sub-ensembles; a
// building block for custom pipelines. It is PartitionCtx on a background
// context; prefer PartitionCtx in new code.
func Partition(space *ensemble.Space, pivot int, pivotFrac, freeFrac float64, seed int64) (*partition.Result, error) {
	//lint:allow ctxprop -- documented legacy wrapper: the non-ctx facade is the root of its own context tree
	return PartitionCtx(context.Background(), space, pivot, PartitionOptions{
		PivotFrac: pivotFrac, FreeFrac: freeFrac, Seed: seed,
	})
}

// StitchOptions configures StitchCtx.
type StitchOptions struct {
	// ZeroJoin selects zero-join JE-stitching (Section V-C.2).
	ZeroJoin bool
	// Trace, when non-nil, receives a "stitch" stage span under its root.
	Trace *obs.Trace
}

// StitchCtx constructs the join tensor (or zero-join tensor) for a
// PF-partitioned pair. The context is checked before the (uninterruptible)
// stitch kernel runs.
func StitchCtx(ctx context.Context, part *partition.Result, opts StitchOptions) (*tensor.Sparse, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("m2td: stitch stage: %w", err)
	}
	span := opts.Trace.Root().Start("stitch")
	done := span.WithVitals(nil)
	defer done()
	var j *tensor.Sparse
	if opts.ZeroJoin {
		j = stitch.ZeroJoin(part)
		span.Set("zero_join", 1)
	} else {
		j = stitch.Join(part)
	}
	span.Set("join_nnz", int64(j.NNZ()))
	return j, nil
}

// Stitch constructs the join tensor (or zero-join tensor) for a
// PF-partitioned pair of sub-ensembles. Prefer StitchCtx in new code.
func Stitch(part *partition.Result, zeroJoin bool) *tensor.Sparse {
	//lint:allow ctxprop -- documented legacy wrapper: the non-ctx facade is the root of its own context tree
	j, err := StitchCtx(context.Background(), part, StitchOptions{ZeroJoin: zeroJoin})
	if err != nil {
		// Unreachable: background contexts are never cancelled and
		// StitchCtx has no other error path.
		panic(fmt.Sprintf("m2td: Stitch: %v", err))
	}
	return j
}

// DecomposeOptions configures DecomposeCtx. The zero value selects
// MethodSELECT at uniform rank 4 over the plain join.
type DecomposeOptions struct {
	// Method is the pivot fusion strategy ("" = MethodSELECT).
	Method Method
	// Rank is the uniform per-mode Tucker rank (0 = 4). Ranks, when
	// non-nil, overrides it with explicit per-mode ranks.
	Rank  int
	Ranks []int
	// ZeroJoin selects zero-join JE-stitching for core recovery.
	ZeroJoin bool
	// Factored requires the join-free core, without fallback (see Config.Factored).
	Factored bool
	// Sketch enables the randomized sketch fast path (see Config.Sketch);
	// Seed 0 defaults to 1. Incompatible with Factored.
	Sketch SketchConfig
	// Parallel is the shared worker-pool size for the decomposition hot
	// path (0 = all CPUs, 1 = serial). Results are bit-identical for any
	// value.
	Parallel int
	// Trace, when non-nil, receives a "decompose" stage span (with
	// factors/stitch/core children) under its root.
	Trace *obs.Trace
}

// DecomposeCtx runs the selected M2TD variant over a PF-partitioned pair
// with cooperative cancellation, the shared worker pool, kernel-plan
// reuse, and optional tracing — the same engine path RunCtx uses.
func DecomposeCtx(ctx context.Context, part *partition.Result, opts DecomposeOptions) (*core.Result, error) {
	if opts.Method == "" {
		opts.Method = MethodSELECT
	}
	method, err := opts.Method.core()
	if err != nil {
		return nil, err
	}
	ranks := opts.Ranks
	if ranks == nil {
		rank := opts.Rank
		if rank == 0 {
			rank = 4
		}
		ranks = tucker.UniformRanks(part.Space.Order(), rank)
	}
	if opts.Sketch.KeepFrac != 0 && opts.Sketch.Seed == 0 {
		opts.Sketch.Seed = 1
	}
	span := opts.Trace.Root().Start("decompose")
	done := span.WithVitals(map[string]func() int64{"strips": parallel.Strips})
	defer done()
	copts := core.Options{
		Method:   method,
		Ranks:    ranks,
		ZeroJoin: opts.ZeroJoin,
		Workers:  opts.Parallel,
		Sketch:   core.SketchSpec{KeepFrac: opts.Sketch.KeepFrac, Seed: opts.Sketch.Seed},
		Span:     span,
	}
	return decomposeInProcess(ctx, part, copts, opts.Factored)
}

// decomposeInProcess is the dispatch rule of every in-process decomposition:
// the join-free core while the partition has its P×E product structure; the
// materialised join under a sketch (which destroys it) or — unless require
// forbids the fallback — a broken structure. Span counter "factored" = 1 join-free.
func decomposeInProcess(ctx context.Context, part *partition.Result, copts core.Options, require bool) (*core.Result, error) {
	if copts.Sketch.KeepFrac == 0 || require {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := core.DecomposeFactored(part, copts)
		if require || !errors.Is(err, core.ErrNoProductStructure) {
			copts.Span.Set("factored", 1)
			return res, err
		}
	}
	return core.DecomposeCtx(ctx, part, copts)
}

// Decompose is DecomposeCtx on a background context; prefer DecomposeCtx in new code.
func Decompose(part *partition.Result, method core.Method, rank int, zeroJoin bool) (*core.Result, error) {
	//lint:allow ctxprop -- documented legacy wrapper: the non-ctx facade is the root of its own context tree
	return DecomposeCtx(context.Background(), part, DecomposeOptions{
		Method: Method(method), Rank: rank, ZeroJoin: zeroJoin,
	})
}

func nan() float64 { return math.NaN() }
