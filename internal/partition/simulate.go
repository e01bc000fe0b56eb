package partition

import (
	"context"
	"sync"
	"time"

	"repro/internal/ensemble"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// SimOptions configures the simulation fan-out of a PF-partitioned
// campaign: worker count, retry policy for transient solver failures, and
// optional crash-safe checkpointing.
type SimOptions struct {
	// Workers is the worker count for the fan-out (0 = GOMAXPROCS, see
	// parallel.Resolve).
	Workers int
	// Retry governs re-execution of transiently failing simulations.
	// The zero value means up to 3 attempts with the default backoff.
	Retry faults.RetryPolicy
	// Checkpoint, when non-nil, persists completed simulations
	// periodically and (with Resume) skips previously completed ones.
	Checkpoint *Checkpoint
	// Span, when non-nil, is the partition stage span: GenerateCtx
	// records the sampled configuration counts on it and opens one child
	// span per sub-campaign (sub1, sub2) carrying that campaign's
	// SimStats as deterministic counters. A nil Span costs one nil check
	// per stage.
	Span *obs.Span
}

// SimStats accounts for every simulation of one sub-campaign (or, on
// Result, the whole campaign). The fault-tolerance invariant is that the
// counters exactly cover the injected faults: a simulation is either
// executed, restored from a checkpoint, or failed; retries and quarantined
// cells are recorded on top.
type SimStats struct {
	// ExecutedSims is the number of simulations that ran to completion in
	// this process (including ones that needed retries).
	ExecutedSims int
	// RestoredSims is the number of simulations skipped because a resumed
	// checkpoint already held their results.
	RestoredSims int
	// RetriedSims is the number of executed simulations that needed more
	// than one attempt.
	RetriedSims int
	// FailedSims is the number of simulations that exhausted their retry
	// budget or crashed fatally; their cells are absent from the tensor.
	FailedSims int
	// QuarantinedCells is the number of non-finite cell values dropped at
	// ingest (the divergence quarantine).
	QuarantinedCells int
}

// add accumulates o into s.
func (s *SimStats) add(o SimStats) {
	s.ExecutedSims += o.ExecutedSims
	s.RestoredSims += o.RestoredSims
	s.RetriedSims += o.RetriedSims
	s.FailedSims += o.FailedSims
	s.QuarantinedCells += o.QuarantinedCells
}

// simulateAll runs the requested simulations on the shared worker pool and
// returns each one's per-timestamp cell values, aligned with sims. A
// failed simulation's entry is nil (and counted in SimStats.FailedSims);
// restored simulations are served from the checkpoint without re-execution.
//
// Executed simulations' cells are carved out of one slab per sub-campaign:
// the assembly reads them and the checkpoint session retains them until
// its last flush, so they cannot live in a reused buffer, but they can
// share one allocation. Each fan-out chunk owns one simulation workspace.
//
// Cancellation is cooperative and deterministic: once ctx is cancelled no
// new simulation starts, in-flight ones finish, completed work is flushed
// to the checkpoint (if any), and ctx.Err() is returned.
func simulateAll(ctx context.Context, space *ensemble.Space, sims []simRequest, opts SimOptions, ckptName string) ([][]float64, SimStats, error) {
	var stats SimStats
	results := make([][]float64, len(sims))

	var sess *ckptSession
	if opts.Checkpoint != nil {
		sess = opts.Checkpoint.session(ckptName)
	}

	// Partition keys into restored (served from the checkpoint) and
	// pending (to execute). Restore decisions are made up front so the
	// fan-out body is uniform.
	pending := make([]int, 0, len(sims))
	for i, sim := range sims {
		if sess != nil {
			if cells, ok := sess.restored[sim.key]; ok {
				results[i] = cells
				stats.RestoredSims++
				continue
			}
		}
		pending = append(pending, i)
	}

	if len(pending) > 0 {
		space.Reference() // materialise before fan-out
	}
	t := space.TimeSamples
	slab := make([]float64, len(pending)*t)

	var mu sync.Mutex
	err := parallel.ForCtx(ctx, len(pending), opts.Workers, func(start, end int) {
		var w ensemble.Workspace
		idx := make([]int, space.NumParams())
		for p := start; p < end; p++ {
			i := pending[p]
			k := sims[i].key
			space.SimIndex(k, idx)
			cells := slab[p*t : (p+1)*t]
			simStart := time.Now()
			attempts, runErr := opts.Retry.Run(ctx, uint64(k), func(actx context.Context) error {
				return space.SimCellsIntoCtx(actx, &w, idx, cells)
			})
			simDuration.Observe(time.Since(simStart).Seconds())
			mu.Lock()
			switch {
			case runErr == nil:
				results[i] = cells
				stats.ExecutedSims++
				if attempts > 1 {
					stats.RetriedSims++
				}
			case ctx.Err() != nil:
				// Campaign cancellation, not a simulation failure: the
				// fan-out returns ctx.Err() and nothing is recorded.
			default:
				stats.FailedSims++
			}
			mu.Unlock()
			if runErr == nil && sess != nil {
				// Off the fan-out's critical path: when a checkpoint save
				// came due this worker writes it, outside every lock, while
				// the others keep simulating.
				if due := sess.note(k, cells); due != nil {
					sess.save(due)
				}
			}
		}
	})

	// Flush completed work even on cancellation, so a cooperatively
	// cancelled campaign checkpoints everything it finished; the flush
	// reports the session's first save error.
	var ckptErr error
	if sess != nil {
		ckptErr = sess.flush()
	}
	if err != nil {
		return nil, stats, err
	}
	if ckptErr != nil {
		return nil, stats, ckptErr
	}
	return results, stats, nil
}
