package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"
)

// arm is one side of a workload: full uses all the parallelism the
// machine offers, serial is the plain single-threaded baseline of the
// same problem.
type arm int

const (
	full arm = iota
	serial
)

func (a arm) String() string {
	if a == full {
		return "full"
	}
	return "serial"
}

// units is the arm's count of workers, executors, clients or processes.
func (a arm) units() int {
	if a == full {
		return nproc()
	}
	return 1
}

// parallel is the arm's m2td.Config.Parallel: 0 selects every CPU.
func (a arm) parallel() int {
	if a == full {
		return 0
	}
	return 1
}

// nproc is the parallelism the full arm may use. Load generation never
// exceeds it.
func nproc() int { return runtime.GOMAXPROCS(0) }

// tally counts operations attempted and failed. A failed correctness
// check is a failed operation.
type tally struct {
	attempted, failed int
}

// op counts one operation; a non-nil err fails it and is logged.
func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintln(os.Stderr, "m2tdperf: FAILED:", err)
	}
}

// check counts one correctness check.
func (t *tally) check(ok bool, format string, args ...any) {
	var err error
	if !ok {
		err = fmt.Errorf("check: "+format, args...)
	}
	t.op(err)
}

// workload is one set of inputs the benchmark runs. The timed run calls
// setUp several times, each followed by units of the two arms alternately,
// then verify; the traced run runs probe alone.
type workload interface {
	// setUp builds everything the first timed campaign needs: spaces,
	// ground truth, stores, servers, and one untimed warm-up campaign.
	setUp(ctx context.Context, t *tally) error
	// tearDown checks what only the set-up's own servers can tell, then
	// releases what setUp built.
	tearDown(ctx context.Context, t *tally)
	// unit runs the arm's next closed-loop unit — one campaign, or one
	// batch of served rounds — and returns its campaigns' latencies in
	// seconds.
	unit(ctx context.Context, a arm, t *tally) []float64
	// afterUnit runs untimed after every unit (scratch clean-up).
	afterUnit()
	// verify checks the outputs the timed arms produced and returns the
	// workload's accuracy.
	verify(ctx context.Context, t *tally) (float64, error)
	// probe describes the workload's traced pass: the layer probe to run
	// and how many batches of the served schedule to trace after it.
	probe(reps int) (lp layerProbe, servedUnits int)
}

// plan sizes a run.
type plan struct {
	// timed is how long the arms alternate; at least minPairs pairs of
	// units run however slow the machine is.
	timed    time.Duration
	minPairs int
	// setups is how often a run sets up at least; a set-up cheap enough
	// for setupBudget to pay for more repeats up to maxSetups times.
	// setup_s is the median.
	setups, maxSetups int
	setupBudget       time.Duration
	// On a machine much slower than expected the run gives up repeats to
	// end in time: once wall has passed, and three pairs have run, no
	// further segment or pair starts. Zero is no limit.
	wall      time.Duration
	traceReps int           // campaigns the traced pass stages
	traceWall time.Duration // no further one, beyond the first three, once this has passed

	// Campaign sizes. probe is where a workload that never materialises a
	// join measures the materialising kernels, both D-M2TD engines and the
	// store; served is the served schedule's campaign, which must outlast
	// an HTTP round trip many times over for a duplicate submitted behind
	// its original to find it still in flight.
	dense, factored, procs, served, probe shape
	// rounds is the served schedule's rounds per closed-loop unit.
	rounds int
}

// newPlan sizes a run of the given length: shapes such that a run of
// runSeconds on a two-core machine alternates the arms at least 50 times.
// A smoke run has two units per arm, one set-up and tiny shapes: it
// exercises the harness, not the program.
func newPlan(seconds int, smoke bool) plan {
	if smoke {
		return plan{
			minPairs: 2, setups: 1, maxSetups: 1, traceReps: 2,
			dense: shape{6, 4}, factored: shape{8, 4}, procs: shape{6, 4}, served: shape{8, 4}, probe: shape{6, 4},
			rounds: 1,
		}
	}
	return plan{
		timed: time.Duration(seconds) * time.Second, minPairs: 20,
		setups: 3, maxSetups: 9, setupBudget: 2 * time.Second,
		wall:      110 * time.Second,
		traceReps: 12, traceWall: 80 * time.Second,
		dense: shape{12, 4}, factored: shape{24, 4}, procs: shape{8, 4}, served: shape{12, 4}, probe: shape{12, 4},
		rounds: batchRounds,
	}
}

// unitStats is one closed-loop unit of one arm as the timed run saw it.
type unitStats struct {
	latencies []float64
	seconds   float64
	allocated uint64 // heap bytes allocated while it ran
}

func (u unitStats) rate() float64 { return float64(len(u.latencies)) / u.seconds }

// runUnit runs and times one unit.
func runUnit(ctx context.Context, w workload, a arm, t *tally) unitStats {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	lat := w.unit(ctx, a, t)
	u := unitStats{latencies: lat, seconds: time.Since(start).Seconds()}
	runtime.ReadMemStats(&after)
	u.allocated = after.TotalAlloc - before.TotalAlloc
	w.afterUnit()
	return u
}

// timedRun is the untraced pass: segments of set-up and alternating arms,
// then the output checks. It fills s with every end-to-end metric.
//
// Every segment starts with a fresh set-up — setup_s is their median — so
// the set-ups are spread over the whole run: a slow spell of the machine
// lasts seconds, and set-ups done back to back all fall inside it or all
// outside it, which moved a run's setup_s by 40 %. There are p.setups
// segments, or up to p.maxSetups when the first set-up shows that
// p.setupBudget pays for more.
//
// The arms alternate unit by unit — full, serial, full, … — so that both
// units of a pair see the machine in the same state, and the throughputs
// reported are the best unit's. On a shared machine contention comes in
// bursts of seconds that only ever slow a unit down: ten runs of the same
// commit put the median latency anywhere within ±15 % while the best unit
// repeats within a few percent, and the ratio of two adjacent units is
// steadier still. The bounded metrics are therefore the best unit's
// throughput per arm and the median of the per-pair ratios; the latency
// percentiles over all units are printed beside them, unbounded.
func timedRun(ctx context.Context, w workload, p plan, s sheet, t *tally) error {
	var setups []float64
	var arms [2][]unitStats
	began := time.Now()
	late := func() bool { return p.wall > 0 && len(arms[serial]) >= 3 && time.Since(began) > p.wall }
	defer func() { w.tearDown(ctx, t) }()
	segments := p.setups
	for seg := 0; seg < segments && !late(); seg++ {
		if seg > 0 {
			w.tearDown(ctx, t)
		}
		start := time.Now()
		if err := w.setUp(ctx, t); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(start)
		setups = append(setups, took.Seconds())
		if seg == 0 {
			segments = min(max(int(p.setupBudget/took), p.setups), p.maxSetups)
		}

		runtime.GC()
		pairs := (p.minPairs + segments - 1) / segments
		start = time.Now()
		// A segment runs one pair at least: the checks need its outputs.
		for n := 0; n == 0 || (!late() && (n < pairs || time.Since(start) < p.timed/time.Duration(segments))); n++ {
			for _, a := range []arm{full, serial} {
				u := runUnit(ctx, w, a, t)
				if len(u.latencies) == 0 {
					return fmt.Errorf("a %s-arm unit completed no campaign", a)
				}
				arms[a] = append(arms[a], u)
			}
		}
	}
	if late() {
		fmt.Fprintf(os.Stderr, "m2tdperf: run has taken %s: stopped after %d set-ups and %d pairs of units\n", p.wall, len(setups), len(arms[serial]))
	}
	s.setMedian("setup_s", setups)

	var rates, latencies [2][]float64
	var ratios []float64
	var allocated uint64
	for i := range arms[full] {
		for _, a := range []arm{full, serial} {
			rates[a] = append(rates[a], arms[a][i].rate())
			latencies[a] = append(latencies[a], arms[a][i].latencies...)
		}
		ratios = append(ratios, rates[full][i]/rates[serial][i])
		allocated += arms[full][i].allocated
	}
	s.setOf("campaigns_per_s", best(rates[full]), rates[full])
	s.setOf("serial_campaigns_per_s", best(rates[serial]), rates[serial])
	if runtime.GOMAXPROCS(0) == 1 {
		fmt.Fprintln(os.Stderr, "m2tdperf: GOMAXPROCS=1: both arms are serial, parallel_speedup is not a scaling figure")
	}
	s.setMedian("parallel_speedup", ratios)
	s.set("alloc_mb_per_campaign", float64(allocated)/1e6/float64(len(latencies[full])))
	// Unbounded, for the reader: what a caller saw over the whole run.
	s.setOf("campaign_s_p50", percentile(latencies[full], 0.50), latencies[full])
	s.setOf("campaign_s_p90", percentile(latencies[full], 0.90), latencies[full])
	s.setOf("serial_campaign_s_p50", percentile(latencies[serial], 0.50), latencies[serial])

	acc, err := w.verify(ctx, t)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	s.set("accuracy", acc)
	return nil
}

// tracedRun is the traced pass: the workload's layer probe, then the
// served schedule with every API call recorded. It fills s with every
// per-layer metric.
func tracedRun(ctx context.Context, w workload, p plan, rec *recorder, s sheet, t *tally, servedDir string) error {
	clock := startProcClock()
	lp, servedUnits := w.probe(p.traceReps)
	lp.wall = p.traceWall
	if err := lp.run(ctx, rec, s, t); err != nil {
		return err
	}
	latencies, err := servedProbe(ctx, rec, s, t, p.served, lp.seed, servedDir, servedUnits, p.rounds)
	if err != nil {
		return fmt.Errorf("served probe: %w", err)
	}
	if _, ok := w.(*served); ok { // its campaigns are these submissions
		s.setOf("campaign_s_p50", percentile(latencies, 0.50), latencies)
		s.setOf("campaign_s_p90", percentile(latencies, 0.90), latencies)
	}
	clock.report(s, lp.dist)
	s.set("failed_frac", float64(t.failed)/float64(t.attempted))
	return nil
}
