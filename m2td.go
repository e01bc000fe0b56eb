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
//   - internal/tucker    — HOSVD / HOOI Tucker decomposition
//   - internal/core      — M2TD-AVG / -CONCAT / -SELECT (+ factored core),
//     and every phase of the 3-phase distributed D-M2TD (Options.Shards)
//   - internal/distnet   — D-M2TD on worker processes
//   - internal/eval      — the paper's experiments (Tables I–VIII, Fig. 6)
//
// The one-call entry point is RunCtx: partition → simulate → decompose →
// evaluate (the join is never stitched):
//
//	report, err := m2td.RunCtx(ctx, m2td.Config{
//	    System:     "double-pendulum",
//	    Resolution: 12,
//	    Rank:       4,
//	    Method:     "select",
//	})
//
// BaselineCtx runs the conventional sampling schemes RunCtx is compared
// against, and the eval package's table runners are wrapped by the
// cmd/m2tdbench tool.
package m2td

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/distnet"
	"repro/internal/dynsys"
	"repro/internal/ensemble"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/partition"
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
	// Workers > 0 runs the 3-phase D-M2TD on the in-process pool with that
	// many "servers": Workers is the shard count of the projection phase
	// (core.Options.Shards), so the result is a pure function of it —
	// bit-identical to Distributed{Shards: Workers} at any core count, and
	// equal to the one-shard decomposition up to floating-point summation
	// order. At most one of Workers, Distributed and Factored may be set;
	// a negative value is refused.
	Workers int
	// Distributed, when non-nil, runs D-M2TD on real worker PROCESSES —
	// the internal/distnet coordinator/worker engine over localhost TCP
	// and a shared artifact catalog — instead of in-process goroutines.
	// The result is bit-identical for any worker count (and under worker kills) at
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
	// Factored selects nothing: every run is join-free
	// (core.DecomposeFactored). The field stays, exclusive with Workers and
	// Distributed but absent from Fingerprint, until the frozen cmd/m2tdperf
	// that sets it is re-based (ROADMAP, "Re-base the benchmark spine").
	Factored bool
	// Seed drives all sampling randomness (default 1).
	Seed int64

	// Faults, when non-nil, injects seeded deterministic faults into the
	// campaign's simulation attempts — transient errors, divergent
	// (non-finite) simulations, panics, and latency at the configured
	// rates. Only the simulation fan-out sees them: the reference, the
	// ground truth and the accuracy estimate stay clean. The run's Report
	// then carries the exact failure accounting.
	// A simulation has faults.Attempts (3) attempts whether or not faults
	// are injected: a transient error is retried at once.
	Faults *faults.Config
	// CheckpointDir, when non-empty, enables crash-safe persistence of
	// completed simulations into an internal/store catalog at that
	// directory (atomic temp+rename+CRC writes), saved every 64 completed
	// simulations and on cancellation. A checkpoint of the same
	// simulations there (SimFingerprint, at the resolved pivot) is restored
	// and its simulations skipped; any other is overwritten.
	CheckpointDir string

	// Trace records a stage-span trace of the run (partition → decompose
	// → evaluate, with per-sub-tensor and per-mode sub-spans) on
	// Report.Trace. Span structure and counters are deterministic for any
	// Parallel value; only durations and gauges vary. Disabled tracing
	// costs one nil check per instrumented site.
	Trace bool
}

// DistributedConfig configures the multi-process D-M2TD engine
// (internal/distnet): a coordinator in this process plus Workers child
// processes connected over localhost TCP, moving data through an
// internal/store catalog. Worker processes are spawned by re-executing
// the current binary, which must call MaybeDistWorker first thing in
// main (cmd/m2tdbench and cmd/m2tdperf do). They outlive the campaign: a
// later campaign of this process with the same Workers and Addr and no
// kill plan runs on them (internal/distnet's fleet pool).
type DistributedConfig struct {
	// Workers is the worker-process count (default 1). The campaign
	// survives losing up to Workers-1 of them.
	Workers int
	// Shards fixes the shard count — Phase 3's task count — the
	// determinism unit: at a fixed Shards the output is bit-identical for
	// any Workers value and any worker deaths. Default: Workers; a
	// negative value is refused.
	Shards int
	// Addr is the coordinator listen address (default "127.0.0.1:0").
	Addr string
	// WorkDir is the shared artifact catalog. Empty uses a fresh
	// temporary directory, removed after the run; set it to a stable path
	// to enable resume-from-durable-artifacts across runs of the same
	// campaign (artifacts are named after the campaign, so a directory
	// another one used is never misread).
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
	// Requeues counts task re-leases, one at most per worker lost;
	// TasksSkipped counts tasks satisfied by an already-durable artifact.
	Requeues, TasksSkipped int
}

// Report is the outcome of a pipeline run.
type Report struct {
	// Accuracy is the paper's metric 1 − ‖X̃−Y‖F/‖Y‖F against the full
	// ground-truth tensor (NaN when SkipAccuracy is set).
	Accuracy float64
	// NumSims is the number of simulation runs spent.
	NumSims int
	// JoinCells is the join's stored-cell count, counted per pivot group (the
	// paper's density formula when nothing was lost): no run builds J.
	JoinCells int
	// SimTime is the wall-clock spent running simulations; DecompTime is
	// the decomposition stage's, timed around it: factors and core recovery,
	// and on the process engine (Config.Distributed) also the fleet's spawn
	// and the uploads. A per-phase split is the trace's decompose span.
	SimTime, DecompTime time.Duration
	// Decomposition holds the factors and core; its Join is nil.
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
	return c
}

// resolved carries the validated products of one Config: the normalized
// config, the internal fusion method, the cached parameter space and, when
// Config.Faults is set, the run's injector. RunCtx and BaselineCtx validate through here, so both
// accept and reject configurations identically.
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
	// Out-of-range values are errors here, before anything is simulated,
	// not panics in a kernel after. A zero size selects its default.
	p, e := cfg.PivotDensity, cfg.SubEnsembleDensity
	for _, f := range []struct {
		name string
		v    float64
		bad  bool
	}{
		{"Resolution", float64(cfg.Resolution), cfg.Resolution < 0},
		{"TimeSamples", float64(cfg.TimeSamples), cfg.TimeSamples < 0},
		{"Rank", float64(cfg.Rank), cfg.Rank < 0},
		{"Workers", float64(cfg.Workers), cfg.Workers < 0},
		{"AccuracySampleSims", float64(cfg.AccuracySampleSims), cfg.AccuracySampleSims < 0},
		{"PivotDensity", p, !(p > 0 && p <= 1)}, // NaN too
		{"SubEnsembleDensity", e, !(e > 0 && e <= 1)},
	} {
		if f.bad {
			return resolved{}, fmt.Errorf("m2td: %s %v out of range (sizes ≥ 0, densities in (0, 1])", f.name, f.v)
		}
	}
	routes := 0
	for _, set := range [...]bool{cfg.Workers > 0, cfg.Distributed != nil, cfg.Factored} {
		if set {
			routes++
		}
	}
	if routes > 1 {
		return resolved{}, fmt.Errorf("m2td: at most one of Workers, Distributed and Factored may be set (each names the decomposition's route)")
	}
	if d := cfg.Distributed; d != nil && (d.KillWorkers < 0 || d.KillWorkers >= max(d.Workers, 1)) {
		return resolved{}, fmt.Errorf("m2td: Distributed.KillWorkers %d must be in [0, Workers)", d.KillWorkers)
	}
	if d := cfg.Distributed; d != nil && d.Shards < 0 {
		return resolved{}, fmt.Errorf("m2td: Distributed.Shards %d must be ≥ 0 (0 = Workers)", d.Shards)
	}
	space, err := cfg.Space()
	if err != nil {
		return resolved{}, err
	}
	r := resolved{cfg: cfg, method: method, space: space}
	if cfg.Faults != nil {
		r.injector = faults.New(*cfg.Faults)
	}
	return r, nil
}

// Systems lists the built-in dynamical systems.
func Systems() []string {
	out := make([]string, 0, 4)
	for _, s := range dynsys.All() {
		out = append(out, s.Name())
	}
	return out
}

// Space returns the parameter space of the config's campaign, with the
// defaults RunCtx fills: the space every run of the config simulates over,
// faulted or not (Report.Space), and the one a caller holding only a
// Config predicts over (the campaign server rebuilding a restart-era job's
// report). Spaces are cached process-wide, with their reference
// trajectories and ground truths; an injector never reaches them, since
// faults are decided per simulation attempt in the fan-out
// (ensemble.SimOptions.Faults).
func (c Config) Space() (*ensemble.Space, error) {
	c = c.normalize()
	return eval.SpaceFor(string(c.System), c.Resolution, c.TimeSamples)
}

// CheckPivot reports an error unless the config's Pivot (after defaults)
// names a mode of its system — a parameter name or "t" — or is "auto",
// which a pilot run resolves later. It builds no space and simulates
// nothing; RunCtx resolves the pivot through the same lookup, so a caller
// that checks first rejects exactly what a run would.
func (c Config) CheckPivot() error {
	_, err := c.normalize().pivotMode()
	return err
}

// pivotMode returns the mode the normalized config's Pivot names, or -1
// for "auto".
func (c Config) pivotMode() (int, error) {
	if c.Pivot == "auto" {
		return -1, nil
	}
	sys, err := dynsys.ByName(string(c.System))
	if err != nil {
		return 0, err
	}
	params := sys.Params()
	for m, p := range params {
		if p.Name == c.Pivot {
			return m, nil
		}
	}
	if c.Pivot == ensemble.TimeName {
		return len(params), nil
	}
	return 0, fmt.Errorf("m2td: unknown pivot %q for system %s", c.Pivot, c.System)
}

// pivot resolves Config.Pivot to a mode of the space: a mode name, or
// "auto" for the best-scoring pivot of a coarse pilot run.
func (r resolved) pivot(ctx context.Context) (int, error) {
	cfg := r.cfg
	m, err := cfg.pivotMode()
	if err != nil || m >= 0 {
		return m, err
	}
	scores, err := eval.SelectPivot(ctx, string(cfg.System), min(cfg.Resolution, 8), cfg.Rank, 150, cfg.Seed)
	if err != nil {
		return 0, fmt.Errorf("m2td: pivot selection: %w", err)
	}
	return scores[0].Pivot, nil
}

// checkpoint opens the crash-safe persistence of completed simulations —
// an internal/store catalog tagged with the simulation key of the config at
// its resolved pivot (see Config.simKey), so a campaign restores exactly the
// checkpoints whose simulations are its own — or returns nil when
// CheckpointDir is unset.
func (r resolved) checkpoint(pivot int) (*ensemble.Checkpoint, error) {
	c := r.cfg
	if c.CheckpointDir == "" {
		return nil, nil
	}
	st, err := store.Open(c.CheckpointDir)
	if err != nil {
		return nil, fmt.Errorf("m2td: checkpoint catalog: %w", err)
	}
	return &ensemble.Checkpoint{Store: st, Fingerprint: c.simKey(r.space.ModeName(pivot))}, nil
}

// trace starts the run's stage-span trace when Config.Trace asks for one.
func (c Config) trace(name string) *obs.Trace {
	if !c.Trace {
		return nil
	}
	return obs.New(name)
}

// MaybeDistWorker turns the current process into a distributed D-M2TD
// worker when the M2TD_DISTNET_ADDR environment is present, and never
// returns in that case. Any binary that may run with Config.Distributed
// set must call it first thing in main: the coordinator spawns workers
// by re-executing its own binary.
func MaybeDistWorker() { distnet.MaybeWorker() }

// stripsVital is the pool gauge every stage span samples beside its
// allocation count.
var stripsVital = map[string]func() int64{"strips": parallel.Strips}

// runStage runs one pipeline stage: a child span of the trace root with
// process vitals, and the stage's name on whatever error the body returns.
func runStage(ctx context.Context, trace *obs.Trace, span, stage string, body func(context.Context, *obs.Span) error) error {
	sp := trace.Root().Start(span)
	done := sp.WithVitals(stripsVital)
	err := body(ctx, sp)
	done()
	if err != nil {
		return fmt.Errorf("m2td: %s stage: %w", stage, err)
	}
	return nil
}

// RunCtx executes the full M2TD pipeline with cooperative cancellation:
// when ctx is cancelled or its deadline expires the pipeline stops at the
// next stage boundary — in-flight simulations and kernels finish, workers
// are joined, completed work is checkpointed — and a wrapped context error
// identifying the stage is returned.
func RunCtx(ctx context.Context, cfg Config) (*Report, error) {
	r, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	cfg = r.cfg
	pivot, err := r.pivot(ctx)
	if err != nil {
		return nil, err
	}
	ck, err := r.checkpoint(pivot)
	if err != nil {
		return nil, err
	}
	trace := cfg.trace("run")

	simStart := time.Now()
	part, err := r.partitionStage(ctx, trace, pivot, ck)
	if err != nil {
		return nil, err
	}
	simTime := time.Since(simStart)

	decompStart := time.Now()
	res, distStats, err := decomposeStage(ctx, trace, part, r.method, tucker.UniformRanks(r.space.Order(), cfg.Rank), cfg)
	if err != nil {
		return nil, err
	}
	decompTime := time.Since(decompStart)

	report := r.report(part.NumSims, part.JoinCells(cfg.ZeroJoin), part.Stats, part.Sub1.Tensor, part.Sub2.Tensor)
	report.SimTime, report.DecompTime = simTime, decompTime
	report.Decomposition, report.Distributed, report.Partition = res, distStats, part
	return r.finish(ctx, trace, report, eval.TuckerModel{Core: res.Core, Factors: res.Factors})
}

// BaselineCtx runs one conventional sampling scheme — "random", "grid",
// "slice" (the paper's Section IV baselines) or "lhs" (Latin hypercube,
// from the experiment-design literature the paper cites) — with the given
// simulation budget and returns its accuracy and decomposition time: the
// comparison target for RunCtx. It shares RunCtx's cooperative
// cancellation and fault-tolerance runtime (retry, panic capture,
// divergence quarantine) on the encoding fan-out.
func BaselineCtx(ctx context.Context, cfg Config, scheme string, budget int) (*Report, error) {
	r, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	if budget <= 0 {
		return nil, fmt.Errorf("m2td: baseline budget %d must be positive", budget)
	}
	cfg = r.cfg
	space := r.space
	sims, err := ensemble.Sample(space, scheme, budget, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, fmt.Errorf("m2td: baseline: %w", err)
	}
	trace := cfg.trace("baseline")

	simStart := time.Now()
	var se *ensemble.SparseEnsemble
	err = runStage(ctx, trace, "simulate", "simulation", func(ctx context.Context, span *obs.Span) (err error) {
		se, _, err = ensemble.EncodeCtx(ctx, space, sims, ensemble.SimOptions{Workers: cfg.Parallel, Faults: r.injector, Span: span})
		return err
	})
	if err != nil {
		return nil, err
	}
	simTime := time.Since(simStart)

	decompStart := time.Now()
	var dec tucker.Decomposition
	err = runStage(ctx, trace, "decompose", "decomposition", func(ctx context.Context, span *obs.Span) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		dec = tucker.HOSVDSpan(se.Tensor, tucker.UniformRanks(space.Order(), cfg.Rank), cfg.Parallel, span)
		return nil
	})
	if err != nil {
		return nil, err
	}

	report := r.report(len(sims), se.Tensor.NNZ(), se.Stats, se.Tensor, se.Tensor)
	report.SimTime, report.DecompTime = simTime, time.Since(decompStart)
	return r.finish(ctx, trace, report, eval.TuckerModel{Core: dec.Core, Factors: dec.Factors})
}

// report starts the Report both pipelines fill the same way: the budget and
// fault-tolerance accounting of the simulation stage, the effective
// densities of the decomposed tensors, and the injector's fault stats.
func (r resolved) report(sims, cells int, st ensemble.SimStats, x1, x2 *tensor.Sparse) *Report {
	report := &Report{
		Accuracy:          math.NaN(),
		NumSims:           sims,
		JoinCells:         cells,
		Space:             r.space,
		ExecutedSims:      st.ExecutedSims,
		RestoredSims:      st.RestoredSims,
		RetriedSims:       st.RetriedSims,
		FailedSims:        st.FailedSims,
		QuarantinedCells:  st.QuarantinedCells,
		EffectiveDensity1: x1.Density(),
		EffectiveDensity2: x2.Density(),
	}
	if r.injector != nil {
		s := r.injector.Stats()
		report.FaultStats = &s
	}
	return report
}

// finish is the tail both pipelines share: the evaluation stage — the
// paper's accuracy against the full ground truth, its sampled-fiber
// estimate under AccuracySampleSims, nothing under SkipAccuracy — then the
// trace close-out and the run counter.
func (r resolved) finish(ctx context.Context, trace *obs.Trace, report *Report, model eval.TuckerModel) (*Report, error) {
	cfg := r.cfg
	err := runStage(ctx, trace, "evaluate", "evaluation", func(ctx context.Context, span *obs.Span) (err error) {
		if cfg.SkipAccuracy {
			span.Set("skipped", 1)
			return nil
		}
		if cfg.AccuracySampleSims > 0 {
			span.Set("sampled_sims", int64(cfg.AccuracySampleSims))
		}
		score, err := eval.Scorer(ctx, r.space, cfg.AccuracySampleSims, cfg.Seed)
		if err != nil {
			return err
		}
		report.Accuracy, err = score(model)
		return err
	})
	if err != nil {
		return nil, err
	}
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

// partitionStage is the simulation stage of RunCtx: the space
// PF-partitioned at the pivot with the normalized config's densities and
// seed, both sub-ensembles simulated under the injector, if any, into the
// checkpoint, if any.
func (r resolved) partitionStage(ctx context.Context, trace *obs.Trace, pivot int, ck *ensemble.Checkpoint) (part *partition.Result, err error) {
	cfg := r.cfg
	cell := eval.Config{System: string(cfg.System), Pivot: pivot, PivotFrac: cfg.PivotDensity, FreeFrac: cfg.SubEnsembleDensity, Seed: cfg.Seed}
	err = runStage(ctx, trace, "partition", "simulation", func(ctx context.Context, span *obs.Span) (err error) {
		part, err = cell.Generate(ctx, r.space, partition.SimOptions{Workers: cfg.Parallel, Faults: r.injector, Checkpoint: ck, Span: span})
		return err
	})
	return part, err
}

// decomposeStage is the decomposition stage of RunCtx, on the executor cfg
// names — the only dispatch there is: the
// process engine (Distributed), and otherwise core.DecomposeFactored in
// process at Workers shards. Both are join-free. Only cfg's decomposition
// fields are read.
func decomposeStage(ctx context.Context, trace *obs.Trace, part *partition.Result, method core.Method, ranks []int, cfg Config) (res *core.Result, ds *DistStats, err error) {
	err = runStage(ctx, trace, "decompose", "decomposition", func(ctx context.Context, span *obs.Span) (err error) {
		if err := ctx.Err(); err != nil {
			return err
		}
		opts := core.Options{
			Method:   method,
			Ranks:    ranks,
			ZeroJoin: cfg.ZeroJoin,
			Workers:  cfg.Parallel,
			Shards:   cfg.Workers,
			Span:     span,
		}
		if cfg.Distributed != nil {
			res, ds, err = decomposeDistributed(ctx, part, opts, cfg)
		} else {
			res, err = core.DecomposeFactored(part, opts)
		}
		return err
	})
	return res, ds, err
}

// decomposeDistributed runs D-M2TD on worker processes (internal/distnet)
// and sums the engine's per-phase accounting into a DistStats.
func decomposeDistributed(ctx context.Context, part *partition.Result, opts core.Options, cfg Config) (*core.Result, *DistStats, error) {
	dc := cfg.Distributed
	workDir := dc.WorkDir
	if workDir == "" {
		tmp, err := os.MkdirTemp("", "m2td-distnet-*")
		if err != nil {
			return nil, nil, fmt.Errorf("distributed work dir: %w", err)
		}
		defer os.RemoveAll(tmp)
		workDir = tmp
	}
	killSeed := dc.KillSeed
	if killSeed == 0 {
		killSeed = cfg.Seed
	}
	d, err := distnet.Decompose(ctx, part, distnet.Options{
		Method:   opts.Method,
		Ranks:    opts.Ranks,
		ZeroJoin: opts.ZeroJoin,
		Workers:  dc.Workers,
		Shards:   dc.Shards,
		Addr:     dc.Addr,
		WorkDir:  workDir,
		Kill:     faults.KillSpec{Seed: killSeed, Kills: dc.KillWorkers},
		Span:     opts.Span,
	})
	if err != nil {
		return nil, nil, err
	}
	return d.Result, &DistStats{
		Workers:      len(d.Workers),
		WorkersLost:  d.Phase1.WorkersLost + d.Phase3.WorkersLost,
		Requeues:     d.Phase1.Requeues + d.Phase3.Requeues,
		TasksSkipped: d.Phase1.Skipped + d.Phase3.Skipped,
	}, nil
}
