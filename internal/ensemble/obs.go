package ensemble

import "repro/internal/obs"

// Simulation fan-out instrumentation, declared once for every pipeline
// that simulates: the PF-partitioned campaign and the conventional
// baselines report into the same process-wide totals. SimStats.Record adds
// a fan-out's counts once per fan-out; the duration histogram is observed
// once per simulation, never per cell — negligible next to the solve.
// Simulations run as one packed batch each observe an equal share of the
// batch's wall time.
var (
	simsExecutedTotal = obs.Default.Counter("m2td_sims_executed_total",
		"Simulations that ran to completion in this process.")
	simsRestoredTotal = obs.Default.Counter("m2td_sims_restored_total",
		"Simulations served from a resumed checkpoint without re-execution.")
	simsRetriedTotal = obs.Default.Counter("m2td_sims_retried_total",
		"Executed simulations that needed more than one attempt.")
	simsFailedTotal = obs.Default.Counter("m2td_sims_failed_total",
		"Simulations that exhausted their retry budget or crashed fatally.")
	cellsQuarantinedTotal = obs.Default.Counter("m2td_cells_quarantined_total",
		"Non-finite cell values dropped at ingest (divergence quarantine).")
	checkpointFlushesTotal = obs.Default.Counter("m2td_checkpoint_flushes_total",
		"Checkpoint saves of a sub-campaign's completed-simulation set.")
	simDuration = obs.Default.Histogram("m2td_sim_duration_seconds",
		"Wall time of one simulation (including its retries); each simulation of a packed batch observes an equal share of the batch's wall time.", nil)
)
