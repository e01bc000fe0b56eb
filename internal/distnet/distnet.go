package distnet

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/stitch"
	"repro/internal/store"
)

// Options configures a multi-process distributed decomposition. Workers,
// Addr and WorkerArgv are the fleet's spawn signature: a campaign runs on
// the pooled fleet an earlier one with the same signature left running, if
// there is one (pool.go). A campaign with a kill plan or WorkerEnv, or on a
// fixed port, gets a fleet of its own.
type Options struct {
	// Method selects the pivot fusion (core.AVG / CONCAT / SELECT).
	Method core.Method
	// Ranks are the per-mode Tucker ranks over the full space.
	Ranks []int
	// ZeroJoin selects zero-join JE-stitching.
	ZeroJoin bool

	// Workers is the worker-process count (default 1). The engine
	// tolerates losing up to Workers-1 of them mid-run: a lost worker's
	// task goes to a survivor. A task error fails the campaign.
	Workers int
	// Shards is the task count of Phase 3 — THE determinism unit: shard
	// assignment is pivot-key % Shards and merge order is ascending shard
	// index, so two runs with equal Shards produce bit-identical results
	// regardless of worker count or deaths. Default: Workers.
	Shards int
	// Addr is the coordinator's listen address (default "127.0.0.1:0").
	Addr string
	// WorkDir is the shared store catalog directory (required); every task
	// names it. Rerun the same campaign with the same WorkDir to resume:
	// tasks whose outputs are already durable are skipped. Outputs are named
	// after the job: an FNV-64a hash of the artifact layout and Gram kernel
	// (jobLayout), the method, the clipped ranks, Shards, ZeroJoin, the
	// sampled grid's configuration counts and both inputs' store checksums.
	// So a directory another campaign, or another build's kernel, used is
	// safe, and merely no help.
	WorkDir string
	// WorkerArgv is the worker command line. Empty means self-exec: the
	// current executable is spawned and must call MaybeWorker at
	// process start (cmd/m2tdbench, cmd/m2tdperf and the test binaries
	// do).
	WorkerArgv []string
	// WorkerEnv appends extra environment entries to spawned workers
	// (chaos/test hooks).
	WorkerEnv []string

	// Kill is the seeded chaos plan forwarded to workers (zero = no
	// kills). Kills must be < Workers. Under a plan the first lease waits
	// for the whole fleet's hellos, so every victim gets the work it is
	// to die on.
	Kill faults.KillSpec
	// LeaseTimeout quarantines a worker whose heartbeats stop without
	// its connection dying (default 10s). SIGKILLed workers are caught
	// faster, by the closed socket.
	LeaseTimeout time.Duration

	// Span, when non-nil, receives "upload", "phase1" and "phase3" child
	// spans while they run: task counts as counters, scheduling gauges, and
	// one child per task from its phase's open to its accepted result.
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
	// Requeues counts task re-leases, one at most per worker lost.
	Requeues int
	// WorkersLost counts workers quarantined during the phase.
	WorkersLost int
	// Duration is the phase's wall-clock time, as its span on
	// Options.Span; cmd/m2tdperf reads it.
	Duration time.Duration
}

// WorkerInfo describes one worker process as the coordinator saw it. A
// worker the campaign was over before hearing from has its ID and PID only.
type WorkerInfo struct {
	ID          int
	PID         int
	Tasks       int
	Quarantined bool
}

// Result augments the serial M2TD result with per-phase engine
// statistics and the worker roster. Join is nil (JoinCells counts per
// pivot group). Phase2, which has no task and no span, is the zero
// PhaseStats; cmd/m2tdperf reads it.
type Result struct {
	*core.Result
	Phase1, Phase2, Phase3 PhaseStats
	Workers                []WorkerInfo
}

// Decompose runs D-M2TD over a PF-partitioned pair on real worker
// processes, join-free (core.DecomposeFactored's phases at Shards). See the
// package comment for the protocol and the determinism contract. The
// workers come from the pool (pool.go): a fleet an earlier campaign of the
// same signature left running, or a new one.
func Decompose(ctx context.Context, p *partition.Result, opts Options) (*Result, error) {
	ranks, err := core.CheckedRanks(opts.Method, opts.Ranks, p.Space.Shape())
	if err != nil {
		return nil, err
	}
	opts, err = opts.normalize()
	if err != nil {
		return nil, err
	}
	// Tasks carry the catalog to the workers: an absolute path, whatever
	// their working directory.
	dir, err := filepath.Abs(opts.WorkDir)
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	// Lease first, upload second: a worker reads the data-plane inputs on
	// its first lease, and no lease goes out before runPhase below, so a new
	// fleet's process start overlaps the upload.
	f, reused, err := checkout(ctx, opts)
	if err != nil {
		return nil, err
	}
	clean := false
	defer func() { release(f, clean) }()
	up := opts.Span.Start("upload")
	var sums [2]uint32
	for i, sub := range []*partition.SubEnsemble{p.Sub1, p.Sub2} {
		if err = st.SaveSparse(objSubs[i], sub.Tensor); err == nil {
			sums[i], err = st.Checksum(objSubs[i])
		}
		if err != nil {
			break
		}
	}
	up.Finish()
	if err != nil {
		return nil, err
	}
	spec := jobSpec{Join: stitch.NewSpec(p, opts.ZeroJoin), Sampled: core.SampledOf(p), Shards: opts.Shards}
	j := &job{fleet: f, reused: reused, opts: opts, st: st, dir: dir, spec: spec, key: jobKey(opts.Method, ranks, spec, sums)}

	factors, p1stats, err := j.subDecompose(ctx, p, opts.Method, ranks)
	if err != nil {
		return nil, err
	}
	res := &Result{Result: &core.Result{Factors: factors}, Phase1: p1stats}
	var parts []core.Partial
	if parts, res.Phase3, err = j.project(ctx, p, ranks); err != nil {
		return nil, err
	}
	total := core.FactoredCore(parts, opts.Span)
	res.Core = total.G
	res.Workers = f.roster()
	clean = res.reusable()
	return res, nil
}

// reusable reports whether the campaign left its fleet as it found it: no
// worker lost. A task is re-leased only after a loss.
func (r *Result) reusable() bool {
	return r.Phase1.WorkersLost+r.Phase3.WorkersLost == 0
}

// job is one campaign on a fleet: its options, its catalog, the geometry
// every task carries and the key its artifacts are named under.
type job struct {
	fleet  *fleet
	reused bool // the fleet served an earlier campaign
	opts   Options
	st     *store.Store
	dir    string
	spec   jobSpec
	key    string
}

// object is the catalog name of the job's artifact id.
func (j *job) object(id string) string { return objectName(j.key, id) }

// task builds one task of the job; its output is the artifact named after
// the task.
func (j *job) task(kind, id string, msg taskMsg) *task {
	msg.ID, msg.Kind, msg.Dir, msg.Job, msg.Spec = id, kind, j.dir, j.key, j.spec
	return &task{msg: msg}
}

// subDecompose is Phase 1 — one factor task per (sub-tensor, mode) — and
// the driver-side fusion (tiny matrices only); the fused list is persisted
// as Phase 3's shared input.
func (j *job) subDecompose(ctx context.Context, p *partition.Result, method core.Method, ranks []int) ([]*mat.Matrix, PhaseStats, error) {
	subs := []*partition.SubEnsemble{p.Sub1, p.Sub2}
	var tasks []*task
	for si, sub := range subs {
		for n, m := range sub.Modes {
			tasks = append(tasks, j.task(taskFactor, factorOut(si+1, n), taskMsg{Kappa: si + 1, Mode: n, Rank: ranks[m]}))
		}
	}
	ps := j.opts.Span.Start("phase1")
	defer ps.Finish()
	stats, err := j.runPhase(ctx, ps, "phase1", tasks)
	if err != nil {
		return nil, stats, err
	}
	// Each side's factors go to their modes as they are; the pivot modes'
	// (leading on both sides) are then fused per the method.
	factors := make([]*mat.Matrix, p.Space.Order())
	var gs, fs [2][]*mat.Matrix
	for si, sub := range subs {
		for n, m := range sub.Modes {
			name := j.object(factorOut(si+1, n))
			ms, err := j.st.LoadMatrices(name)
			if err == nil {
				err = checkPhase1(ms, sub.Tensor.Shape[n], ranks[m])
			}
			if err != nil {
				return nil, stats, fmt.Errorf("distnet: phase 1 artifact %s: %w", name, err)
			}
			gs[si], fs[si] = append(gs[si], ms[0]), append(fs[si], ms[1])
			factors[m] = ms[1]
		}
	}
	for i, m := range p.Config.Pivots {
		factors[m] = core.FusePivot(method, ranks[m], fs[0][i], gs[0][i], fs[1][i], gs[1][i])
	}
	return factors, stats, j.st.SaveMatrices(objFactors, factors)
}

// project is Phase 3: one core.ProjectShard task per shard, each saving its
// partial as one object; returned in ascending shard order.
func (j *job) project(ctx context.Context, p *partition.Result, ranks []int) (parts []core.Partial, stats PhaseStats, err error) {
	ps := j.opts.Span.Start("phase3")
	defer ps.Finish()
	var tasks []*task
	for s := 0; s < j.spec.Shards; s++ {
		tasks = append(tasks, j.task(taskProject, projectOut(s), taskMsg{Shard: s}))
	}
	if stats, err = j.runPhase(ctx, ps, "phase3", tasks); err != nil {
		return nil, stats, err
	}
	for _, t := range tasks {
		var part core.Partial
		ms, err := j.st.LoadMatrices(t.msg.out())
		if err == nil {
			part, err = partialOf(ms, ranks)
		}
		if err != nil {
			return nil, stats, fmt.Errorf("distnet: phase 3 artifact %s: %w", t.msg.out(), err)
		}
		parts = append(parts, part)
	}
	return parts, stats, nil
}
