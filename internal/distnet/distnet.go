package distnet

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/faults"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/stitch"
	"repro/internal/store"
	"repro/internal/tensor"
)

// Options configures a multi-process distributed decomposition.
type Options struct {
	// Method selects the pivot fusion (core.AVG / CONCAT / SELECT).
	Method core.Method
	// Ranks are the per-mode Tucker ranks over the full space.
	Ranks []int
	// ZeroJoin selects zero-join JE-stitching.
	ZeroJoin bool

	// Workers is the worker-process count (default 1). The engine
	// tolerates losing up to Workers-1 of them mid-run.
	Workers int
	// Shards is the task count for phases 2 and 3 — THE determinism
	// unit: shard assignment is pivot-key % Shards and merge order is
	// ascending shard index, so two runs with equal Shards produce
	// bit-identical results regardless of worker count or deaths.
	// Default: Workers.
	Shards int
	// Addr is the coordinator's listen address (default "127.0.0.1:0").
	Addr string
	// WorkDir is the shared store catalog directory (required). Rerun
	// with the same WorkDir and inputs to resume: tasks whose outputs
	// are already durable are skipped.
	WorkDir string
	// WorkerArgv is the worker command line. Empty means self-exec: the
	// current executable is spawned and must call MaybeWorker at
	// process start (cmd/m2tdworker, cmd/m2tdbench, and the test
	// binaries do).
	WorkerArgv []string
	// WorkerEnv appends extra environment entries to spawned workers
	// (chaos/test hooks).
	WorkerEnv []string
	// Metrics makes each worker serve its own obs endpoints on a
	// self-picked port, reported back in its hello and surfaced on
	// Result.Workers.
	Metrics bool

	// Kill is the seeded chaos plan forwarded to workers (zero = no
	// kills). Kills must be < Workers.
	Kill faults.KillSpec
	// Retry bounds task re-leases after a worker loss: MaxAttempts per
	// task, backoff with seeded jitter between leases. The zero value
	// defaults to max(3, Kill.Kills+2) attempts.
	Retry faults.RetryPolicy
	// LeaseTimeout quarantines a worker whose heartbeats stop without
	// its connection dying (default 10s). SIGKILLed workers are caught
	// faster, by the closed socket.
	LeaseTimeout time.Duration
	// HeartbeatInterval is the workers' beat period and the
	// coordinator's lease-check period (default 250ms).
	HeartbeatInterval time.Duration

	// Span, when non-nil, receives per-phase child spans with
	// deterministic task counters and scheduling gauges (requeues,
	// workers lost, per-task worker/attempt/duration).
	Span *obs.Span
}

// normalize fills defaults and validates the parts that don't need the
// partition.
func (o Options) normalize() (Options, error) {
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.Shards < 1 {
		o.Shards = o.Workers
	}
	if o.Addr == "" {
		o.Addr = "127.0.0.1:0"
	}
	if o.LeaseTimeout <= 0 {
		o.LeaseTimeout = 10 * time.Second
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 250 * time.Millisecond
	}
	if o.WorkDir == "" {
		return o, fmt.Errorf("distnet: WorkDir is required (the shared artifact catalog)")
	}
	if o.Kill.Kills > 0 {
		if o.Kill.Total == 0 {
			o.Kill.Total = o.Workers
		}
		if o.Kill.Kills >= o.Workers {
			return o, fmt.Errorf("distnet: Kill.Kills %d must leave at least one of %d workers alive", o.Kill.Kills, o.Workers)
		}
	}
	if o.Retry.MaxAttempts <= 0 {
		o.Retry.MaxAttempts = 3
		if o.Kill.Kills+2 > o.Retry.MaxAttempts {
			o.Retry.MaxAttempts = o.Kill.Kills + 2
		}
	}
	return o, nil
}

// PhaseStats describes one phase's execution. Tasks is deterministic
// (a counter); the rest depend on scheduling and are reported as
// gauges on the trace.
type PhaseStats struct {
	// Tasks is the phase's task count (pure function of the config).
	Tasks int
	// Skipped counts tasks satisfied by an already-durable artifact.
	Skipped int
	// Requeues counts task re-leases after worker loss or task error.
	Requeues int
	// WorkersLost counts workers quarantined during the phase.
	WorkersLost int
	// Duration is the phase's wall-clock time.
	Duration time.Duration
}

// WorkerInfo describes one worker process as the coordinator saw it.
type WorkerInfo struct {
	ID          int
	PID         int
	MetricsAddr string
	Tasks       int
	Quarantined bool
}

// Result augments the serial M2TD result with per-phase engine
// statistics and the worker roster.
type Result struct {
	*core.Result
	Phase1, Phase2, Phase3 PhaseStats
	Workers                []WorkerInfo
}

// Decompose runs D-M2TD over a PF-partitioned pair on real worker
// processes. See the package comment for the protocol and the
// determinism contract.
func Decompose(ctx context.Context, p *partition.Result, opts Options) (*Result, error) {
	ranks, err := core.CheckedRanks(opts.Method, opts.Ranks, p.Space.Shape())
	if err != nil {
		return nil, err
	}
	opts, err = opts.normalize()
	if err != nil {
		return nil, err
	}

	st, err := store.Open(opts.WorkDir)
	if err != nil {
		return nil, err
	}
	// Spawn first, upload second: a worker reads the data-plane inputs on
	// its first lease, and no lease goes out before runPhase below, so
	// process start overlaps the upload.
	eng, err := newEngine(ctx, opts)
	if err != nil {
		return nil, err
	}
	defer eng.shutdown()
	if err := st.SaveSparse(objSub1, p.Sub1.Tensor); err != nil {
		return nil, err
	}
	if err := st.SaveSparse(objSub2, p.Sub2.Tensor); err != nil {
		return nil, err
	}

	spec := jobSpec{Join: stitch.NewSpec(p, opts.ZeroJoin), Shards: opts.Shards}

	// ---- Phase 1: parallel sub-tensor decomposition ----
	var p1tasks []*task
	subs := []*partition.SubEnsemble{p.Sub1, p.Sub2}
	for si, sub := range subs {
		kappa := si + 1
		for n, m := range sub.Modes {
			p1tasks = append(p1tasks, &task{msg: taskMsg{
				ID: factorOut(kappa, n), Kind: taskFactor,
				Kappa: kappa, Mode: n, Rank: ranks[m],
				Out: factorOut(kappa, n), Spec: spec,
			}})
		}
	}
	p1stats, err := eng.runPhase(ctx, "phase1", p1tasks)
	if err != nil {
		return nil, err
	}

	// Fuse pivot factors driver-side (tiny matrices only) and persist
	// the fused list — phase 3's shared input.
	loadSub := func(kappa, modes int) (fs, gs []*mat.Matrix, err error) {
		for n := 0; n < modes; n++ {
			ms, err := st.LoadMatrices(factorOut(kappa, n))
			if err != nil {
				return nil, nil, fmt.Errorf("distnet: phase 1 artifact %s: %w", factorOut(kappa, n), err)
			}
			gs, fs = append(gs, ms[0]), append(fs, ms[1])
		}
		return fs, gs, nil
	}
	f1, g1, err := loadSub(1, len(p.Sub1.Modes))
	if err != nil {
		return nil, err
	}
	f2, g2, err := loadSub(2, len(p.Sub2.Modes))
	if err != nil {
		return nil, err
	}
	factors := dist.FuseFactors(opts.Method, p.Config, p.Space.Order(), ranks, f1, g1, f2, g2)
	if err := st.SaveMatrices(objFactors, factors); err != nil {
		return nil, err
	}

	// ---- Phase 2: parallel JE-stitching, sharded by pivot key ----
	var p2tasks []*task
	for s := 0; s < opts.Shards; s++ {
		p2tasks = append(p2tasks, &task{msg: taskMsg{
			ID: stitchOut(s), Kind: taskStitch, Shard: s, Out: stitchOut(s), Spec: spec,
		}})
	}
	p2stats, err := eng.runPhase(ctx, "phase2", p2tasks)
	if err != nil {
		return nil, err
	}
	// Merge join shards in ascending shard order — worker-independent.
	shards := make([]*tensor.Sparse, opts.Shards)
	for s := range shards {
		if shards[s], err = st.LoadSparse(stitchOut(s)); err != nil {
			return nil, fmt.Errorf("distnet: phase 2 artifact %s: %w", stitchOut(s), err)
		}
	}
	j := dist.MergeJoin(p.Space.Shape(), shards)

	// ---- Phase 3: parallel core recovery over the join shards ----
	var p3tasks []*task
	for s := 0; s < opts.Shards; s++ {
		p3tasks = append(p3tasks, &task{msg: taskMsg{
			ID: coreOut(s), Kind: taskCore, Shard: s, In: stitchOut(s), Out: coreOut(s), Spec: spec,
		}})
	}
	p3stats, err := eng.runPhase(ctx, "phase3", p3tasks)
	if err != nil {
		return nil, err
	}
	// Sum partial cores in ascending shard order.
	partials := make([]*tensor.Dense, opts.Shards)
	for s := range partials {
		if partials[s], err = st.LoadDense(coreOut(s)); err != nil {
			return nil, fmt.Errorf("distnet: phase 3 artifact %s: %w", coreOut(s), err)
		}
	}
	coreT := dist.SumCores(partials)

	return &Result{
		Result: &core.Result{
			Factors:       factors,
			Core:          coreT,
			Join:          j,
			SubDecompTime: p1stats.Duration,
			StitchTime:    p2stats.Duration,
			CoreTime:      p3stats.Duration,
		},
		Phase1:  p1stats,
		Phase2:  p2stats,
		Phase3:  p3stats,
		Workers: eng.roster(),
	}, nil
}
