package ensemble

import (
	"context"
	"math"
	"sync"

	"repro/internal/dynsys"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// This file is where a parameter-grid key becomes a time fibre. There are
// two loops and no third: SimulateCtx, the fallible fan-out every campaign
// simulation goes through (the PF-partitioned sub-campaigns of
// internal/partition and the conventional ensembles of EncodeCtx alike, so
// "executed, restored, failed" mean one thing on both sides of an
// equal-budget comparison), and TruthFibers, the infallible loop behind
// ground truths and accuracy estimates.

// SimOptions configures one simulation fan-out: worker count, optional
// fault injection and optional crash-safe checkpointing. Every simulation
// runs under faults.Run: a transient failure is retried at once,
// faults.Attempts attempts in all.
type SimOptions struct {
	// Workers is the worker count for the fan-out (0 = GOMAXPROCS, see
	// parallel.Resolve).
	Workers int
	// Faults, when non-nil, decides every simulation attempt's injected
	// faults (faults.Injector.Inject) before its cells are kept: a
	// transient error is retried, a panic fails the simulation, and a
	// divergent simulation's cells are NaN, which Keep quarantines.
	Faults *faults.Injector
	// Checkpoint, when non-nil, persists completed simulations
	// periodically and (with Resume) skips previously completed ones.
	Checkpoint *Checkpoint
	// Span, when non-nil, is the simulation stage's span: EncodeCtx
	// records its fan-out's SimStats and cell count on it;
	// partition.GenerateCtx records the sampled configuration counts and
	// opens one child per sub-campaign (sub1, sub2) carrying that
	// campaign's SimStats. All are deterministic counters. A nil Span
	// costs one nil check per stage.
	Span *obs.Span
}

// SimStats accounts for every simulation of one fan-out (or, on
// partition.Result, of both sub-campaigns). The accounting rule is that a
// requested simulation is exactly one of executed, restored from a
// checkpoint, or failed — ExecutedSims + RestoredSims + FailedSims is the
// budget spent — with retries and quarantined cells recorded on top.
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
	// FailedSims is the number of simulations that exhausted their
	// attempt budget or failed fatally; their cells are absent from the
	// tensor.
	FailedSims int
	// QuarantinedCells is the number of requested cells whose simulated
	// value was NaN or ±Inf and so was dropped, not stored (Keep).
	QuarantinedCells int
}

// Keep is the divergence quarantine, applied to each requested cell as it
// is about to be stored: it reports whether v is finite, and counts a
// NaN/±Inf value in QuarantinedCells. A divergent-but-completed run thus
// leaves a hole instead of poisoning a Gram or a stitched pivot, and only
// cells a campaign asked for are counted.
func (s *SimStats) Keep(v float64) bool {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		s.QuarantinedCells++
		return false
	}
	return true
}

// Add accumulates o into s.
func (s *SimStats) Add(o SimStats) {
	s.ExecutedSims += o.ExecutedSims
	s.RestoredSims += o.RestoredSims
	s.RetriedSims += o.RetriedSims
	s.FailedSims += o.FailedSims
	s.QuarantinedCells += o.QuarantinedCells
}

// SimulateCtx runs n simulations, the i-th at key(i) — a C-order linear
// index of the parameter grid, see SimIndex — on the shared worker pool
// and returns each one's per-timestamp cell values, in that order. A
// failed simulation's entry is nil (and counted in SimStats.FailedSims);
// restored simulations are served from the checkpoint, whose object is
// named after name, without re-execution.
//
// Executed simulations' cells are carved out of one slab per call: the
// assembly reads them and the checkpoint session retains them until its
// last flush, so they cannot live in a reused buffer, but they can share
// one allocation. Each fan-out chunk owns one simulation workspace.
//
// The fan-out's unit is up to dynsys.Lanes consecutive pending
// simulations, run by SimCellsLanesInto as one faults.Run attempt (the last
// unit holds what is left); executed, failed and checkpointed are still
// per simulation. With opts.Faults set, each simulation of a completed
// unit is then attempted on its own: faults.Run over Injector.Inject, so
// retries, failures and divergence stay per simulation too, and a
// divergent simulation's cells become NaN.
//
// Cancellation is cooperative and deterministic: once ctx is cancelled no
// new unit starts, in-flight ones finish, completed work is flushed to the
// checkpoint (if any), and ctx.Err() is returned.
func (s *Space) SimulateCtx(ctx context.Context, name string, n int, key func(i int) int, opts SimOptions) ([][]float64, SimStats, error) {
	var stats SimStats
	results := make([][]float64, n)

	var sess *ckptSession
	if opts.Checkpoint != nil {
		sess = opts.Checkpoint.session(name)
	}

	// Partition keys into restored (served from the checkpoint) and
	// pending (to execute). Restore decisions are made up front so the
	// fan-out body is uniform.
	pending := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if sess != nil {
			if cells, ok := sess.restored[key(i)]; ok {
				results[i] = cells
				stats.RestoredSims++
				continue
			}
		}
		pending = append(pending, i)
	}

	if len(pending) > 0 {
		s.Reference() // materialise before fan-out
	}
	t := s.TimeSamples
	slab := make([]float64, len(pending)*t)

	var mu sync.Mutex
	err := parallel.ForCtx(ctx, (len(pending)+dynsys.Lanes-1)/dynsys.Lanes, opts.Workers, func(start, end int) {
		var w Workspace
		var keys [dynsys.Lanes]int
		for u := start; u < end; u++ {
			lo, hi := u*dynsys.Lanes, min((u+1)*dynsys.Lanes, len(pending))
			unit := pending[lo:hi]
			cells := slab[lo*t : hi*t]
			for j, i := range unit {
				keys[j] = key(i)
			}
			clock := obs.StartStopwatch()
			attempts, runErr := faults.Run(ctx, func() error {
				if err := ctx.Err(); err != nil {
					return err
				}
				s.SimCellsLanesInto(&w, keys[:len(unit)], cells)
				return nil
			})
			perSim := clock.Elapsed().Seconds() / float64(len(unit))
			for range unit {
				simDuration.Observe(perSim)
			}
			for j, i := range unit {
				tries, err, diverge := attempts, runErr, false
				if err == nil && opts.Faults != nil {
					vals := s.keyValues(&w, keys[j:j+1])
					tries, err = faults.Run(ctx, func() (err error) {
						diverge, err = opts.Faults.Inject(ctx, vals)
						return err
					})
				}
				mu.Lock()
				switch {
				case err == nil:
					stats.ExecutedSims++
					if tries > 1 {
						stats.RetriedSims++
					}
				case ctx.Err() != nil:
					// Campaign cancellation, not a simulation failure: the
					// fan-out returns ctx.Err() and nothing is recorded.
				default:
					stats.FailedSims++
				}
				mu.Unlock()
				if err != nil {
					continue
				}
				results[i] = cells[j*t : (j+1)*t]
				if diverge {
					for c := range results[i] {
						results[i][c] = math.NaN()
					}
				}
				if sess != nil {
					// Off the fan-out's critical path: when a checkpoint
					// save came due this worker writes it, outside every
					// lock, while the others keep simulating.
					if due := sess.note(keys[j], results[i]); due != nil {
						sess.save(due)
					}
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

// Record closes one fan-out's accounting once its cells are assembled into
// x: the stats go to the process-wide metrics registry and onto the stage
// span (deterministic counters: every field depends only on the injected
// faults and the requested simulations, never on the worker count).
func (s *SimStats) Record(span *obs.Span, sims int, x *tensor.Sparse) {
	simsExecutedTotal.Add(int64(s.ExecutedSims))
	simsRestoredTotal.Add(int64(s.RestoredSims))
	simsRetriedTotal.Add(int64(s.RetriedSims))
	simsFailedTotal.Add(int64(s.FailedSims))
	cellsQuarantinedTotal.Add(int64(s.QuarantinedCells))
	span.Set("sims", int64(sims))
	span.Set("cells", int64(x.NNZ()))
	span.Add("sims_executed", int64(s.ExecutedSims))
	span.Add("sims_restored", int64(s.RestoredSims))
	span.Add("sims_retried", int64(s.RetriedSims))
	span.Add("sims_failed", int64(s.FailedSims))
	span.Add("cells_quarantined", int64(s.QuarantinedCells))
}

// TruthFibers simulates n simulations, the i-th at key(i), on the
// infallible path — no fault is injected — and writes
// the i-th one's time fibre to dst[i*TimeSamples:(i+1)*TimeSamples]. It is
// the one loop behind GroundTruth and eval's sampled fibres; it fans out
// units of up to dynsys.Lanes consecutive keys (SimCellsLanesInto) on the
// shared worker pool, one workspace per chunk.
func (s *Space) TruthFibers(n int, key func(i int) int, dst []float64) {
	s.Reference() // materialise before fan-out
	t := s.TimeSamples
	parallel.For((n+dynsys.Lanes-1)/dynsys.Lanes, 0, func(start, end int) {
		var w Workspace
		var keys [dynsys.Lanes]int
		for u := start; u < end; u++ {
			lo, hi := u*dynsys.Lanes, min((u+1)*dynsys.Lanes, n)
			for i := lo; i < hi; i++ {
				keys[i-lo] = key(i)
			}
			s.SimCellsLanesInto(&w, keys[:hi-lo], dst[lo*t:hi*t])
		}
	})
}
