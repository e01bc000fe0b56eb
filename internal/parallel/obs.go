package parallel

import "repro/internal/obs"

// Worker-pool instrumentation. Counters are registry-backed atomics
// incremented once per strip / task / worker goroutine — never per
// element — so the hot kernels pay a handful of atomic adds per kernel
// invocation, which is far below measurement noise (guarded by the
// BenchmarkParallelHOSVD regression budget).
var (
	stripsTotal = obs.Default.Counter("m2td_parallel_strips_total",
		"Contiguous index strips executed by the shared worker pool (For/ForCtx).")
	tasksTotal = obs.Default.Counter("m2td_parallel_tasks_total",
		"Tasks executed by the shared worker pool (Do).")
	workersActive = obs.Default.Gauge("m2td_parallel_workers_active",
		"Worker goroutines (or inline callers) currently executing pool work.")
	reduceStripsTotal = obs.Default.Counter("m2td_parallel_reduce_strips_total",
		"Input strips folded into private partial accumulators by ReduceStrips.")
	reduceMergesTotal = obs.Default.Counter("m2td_parallel_reduce_merges_total",
		"Pairwise partial-accumulator merges performed by ReduceStrips' fixed tree.")
)

// Strips returns the process-wide count of index strips executed by the
// pool. Stage spans record the delta across a stage as a gauge — the
// value depends on the worker count, so it is a vital, not a
// deterministic counter.
func Strips() int64 { return stripsTotal.Value() }
