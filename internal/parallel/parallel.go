// Package parallel is the shared worker-pool layer under every hot kernel
// in the decomposition stack (sparse TTM, matricization Gram matrices,
// dense matmul, the HOSVD mode loop, and the X₁/X₂ sub-decompositions of
// M2TD).
//
// Design rules, chosen so that concurrency never changes results:
//
//   - Scheduling is static and deterministic: For splits [0, n) into
//     contiguous near-equal ranges, one per worker, with boundaries that
//     depend only on n and the worker count — never on timing.
//   - Kernels built on For partition their OUTPUT index space, so each
//     element is written by exactly one goroutine in the same order the
//     serial loop would use. Results are bit-identical for any worker
//     count, including workers=1.
//   - Reductions that cannot partition their output use ReduceStrips
//     (strips.go), which accumulates into per-strip partial buffers over a
//     strip grid that is fixed independently of the worker count and merges
//     the partials through a fixed pairwise tree. Results are again
//     bit-stable for any worker count (though the fixed grid means they may
//     differ — by FP reassociation only — from a single undivided serial
//     loop).
//   - Worker panics are captured and re-raised on the calling goroutine,
//     so a panicking kernel behaves exactly like its serial counterpart.
//
// The package-level default worker count is runtime.GOMAXPROCS(0); knobs
// on HOOIOptions, the tucker entry points, core.Options, and the public
// m2td.Config override it per call with a positive value (1 = serial).
package parallel

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// defaultWorkers holds the process-wide default worker count; 0 means
// "use the M2TD_WORKERS environment override, else runtime.GOMAXPROCS(0)".
var defaultWorkers atomic.Int64

// envWorkers reads the M2TD_WORKERS environment override once. It exists
// so CI can sweep the whole test suite across worker counts (the faults
// job runs the acceptance tests at M2TD_WORKERS ∈ {1, 3, NumCPU} under
// -race) without threading a knob through every entry point.
var envWorkers = sync.OnceValue(func() int {
	if s := os.Getenv("M2TD_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return 0
})

// DefaultWorkers returns the process-wide default worker count:
// runtime.GOMAXPROCS(0) unless overridden by SetDefaultWorkers or the
// M2TD_WORKERS environment variable (SetDefaultWorkers wins).
func DefaultWorkers() int {
	if n := defaultWorkers.Load(); n > 0 {
		return int(n)
	}
	if n := envWorkers(); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// fanoutCap bounds how many goroutines a single For/Do call actually
// spawns; 0 means "use runtime.GOMAXPROCS(0)". See SetFanoutCap.
var fanoutCap atomic.Int64

// FanoutCap returns the per-call goroutine fan-out bound:
// runtime.GOMAXPROCS(0) unless overridden by SetFanoutCap.
func FanoutCap() int {
	if n := fanoutCap.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetFanoutCap overrides the per-call goroutine fan-out bound (n <= 0
// restores the GOMAXPROCS default) and returns the previous override (0 if
// none was set). The cap is pure scheduling: every result-bearing grid —
// For's output partitions are write-disjoint, ReduceStrips' strip grid is
// fixed independently of the worker count —
// is unchanged by it, so capping never changes a single output bit. The
// bit-stability suites raise the cap above GOMAXPROCS so the race
// detector sees real goroutine interleavings even on small machines;
// production code leaves it alone, which keeps a workers=8 request on a
// 1-CPU container from paying for 8 goroutines that cannot run in
// parallel.
func SetFanoutCap(n int) int {
	if n < 0 {
		n = 0
	}
	return int(fanoutCap.Swap(int64(n)))
}

// fanout resolves a workers knob to the number of goroutines worth
// spawning: the resolved worker count, capped by FanoutCap.
func fanout(workers int) int {
	w := Resolve(workers)
	if c := FanoutCap(); w > c {
		w = c
	}
	return w
}

// SplitWorkers divides a worker budget across tasks that will each fan
// out internally: it returns the per-task inner worker count
// ceil(workers/min(tasks, workers)), at least 1. Task fan-outs (e.g.
// HOSVD's per-mode factor extractions, M2TD's concurrent X₁/X₂
// sub-decompositions) pass the result to their nested kernels so a
// workers=W request occupies ~W goroutines in total instead of W per
// task. Purely a scheduling decision — worker counts never change
// results.
func SplitWorkers(workers, tasks int) int {
	w := Resolve(workers)
	if tasks < 1 {
		tasks = 1
	}
	if tasks > w {
		tasks = w
	}
	return (w + tasks - 1) / tasks
}

// SetDefaultWorkers overrides the process-wide default worker count used
// when a kernel is invoked with workers <= 0. Passing n <= 0 restores the
// GOMAXPROCS default. It is safe for concurrent use.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int64(n))
}

// Resolve normalizes a workers knob: a positive value is returned as-is,
// anything else resolves to DefaultWorkers().
func Resolve(workers int) int {
	if workers > 0 {
		return workers
	}
	return DefaultWorkers()
}

// workerPanic carries a captured worker panic back to the caller.
type workerPanic struct {
	val   any
	stack []byte
}

// capture records the first panic observed across workers.
type capture struct {
	mu    sync.Mutex
	first *workerPanic
}

func (c *capture) recover() {
	if r := recover(); r != nil {
		c.mu.Lock()
		if c.first == nil {
			buf := make([]byte, 8192)
			c.first = &workerPanic{val: r, stack: buf[:runtime.Stack(buf, false)]}
		}
		c.mu.Unlock()
	}
}

func (c *capture) repanic(kind string) {
	if c.first != nil {
		panic(fmt.Sprintf("parallel: %s panic: %v\n%s", kind, c.first.val, c.first.stack))
	}
}

// For runs fn over the half-open range [0, n) split into contiguous
// near-equal chunks, one per worker. Chunk boundaries depend only on n and
// the resolved worker count, and every index belongs to exactly one chunk,
// so kernels that write disjoint outputs per index are deterministic under
// any worker count. fn is never invoked with an empty range; with a single
// effective worker it runs inline as fn(0, n). workers <= 0 selects the
// package default; the effective worker count is also capped at n and at
// FanoutCap (goroutines beyond the scheduler's parallelism only add
// overhead). The cap moves chunk boundaries, never how an index is
// computed — For kernels write disjoint outputs per index, and
// reductions layer their own worker-independent grids on top — so it
// cannot change results.
//
// For is for loops whose per-index work is substantial (a tensor fiber, a
// matrix row, a whole mode). For fine-grained element loops use ForGrain,
// which caps the fan-out so each worker gets at least a grain of work.
//
// A panic in any worker is re-raised on the calling goroutine after all
// workers have finished.
func For(n, workers int, fn func(start, end int)) {
	if n <= 0 {
		return
	}
	workers = fanout(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		stripsTotal.Inc()
		workersActive.Add(1)
		defer workersActive.Add(-1)
		fn(0, n)
		return
	}
	var (
		wg sync.WaitGroup
		pc capture
	)
	for w := 0; w < workers; w++ {
		start := w * n / workers
		end := (w + 1) * n / workers
		if start >= end {
			continue
		}
		wg.Add(1)
		stripsTotal.Inc()
		go func(start, end int) {
			defer wg.Done()
			defer pc.recover()
			workersActive.Add(1)
			defer workersActive.Add(-1)
			fn(start, end)
		}(start, end)
	}
	wg.Wait()
	pc.repanic("worker")
}

// ForGrain is For with a minimum per-worker grain: the effective worker
// count is capped at n/grain (at least 1), so cheap element loops are not
// fanned out across more goroutines than the work can amortise. grain <= 0
// means 1. Determinism properties match For.
func ForGrain(n, workers, grain int, fn func(start, end int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	workers = Resolve(workers)
	if max := n / grain; workers > max {
		workers = max
	}
	if workers < 1 {
		workers = 1
	}
	For(n, workers, fn)
}

// Do runs the tasks concurrently on up to `workers` goroutines
// (errgroup-style join: it returns only after every task has finished) and
// re-raises the first worker panic on the caller. Tasks are claimed in
// index order, so with workers=1 they run exactly in the order given.
// workers <= 0 selects the package default.
func Do(workers int, tasks ...func()) {
	n := len(tasks)
	if n == 0 {
		return
	}
	workers = fanout(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		workersActive.Add(1)
		defer workersActive.Add(-1)
		var pc capture
		for _, t := range tasks {
			tasksTotal.Inc()
			func() {
				defer pc.recover()
				t()
			}()
		}
		pc.repanic("task")
		return
	}
	var (
		wg   sync.WaitGroup
		next atomic.Int64
		pc   capture
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			workersActive.Add(1)
			defer workersActive.Add(-1)
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				tasksTotal.Inc()
				func() {
					defer pc.recover()
					tasks[i]()
				}()
			}
		}()
	}
	wg.Wait()
	pc.repanic("task")
}
