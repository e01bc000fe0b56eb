package m2td

import (
	"context"
	"errors"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/stitch"
	"repro/internal/store"
)

// waitForGoroutines polls until the goroutine count returns to (near) the
// baseline, failing if the fan-out leaked workers.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), base)
}

func TestRunCtxCancelledBeforeStart(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := smallConfig()
	cfg.SkipAccuracy = true
	start := time.Now()
	_, err := RunCtx(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancelled run took %v", d)
	}
	waitForGoroutines(t, base)
}

func TestRunCtxCancelledMidCampaign(t *testing.T) {
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var attempts atomic.Int64
	cfg := smallConfig()
	cfg.SkipAccuracy = true
	cfg.Faults = &faults.Config{Seed: 1, Hook: func() {
		if attempts.Add(1) == 3 {
			cancel()
		}
	}}
	_, err := RunCtx(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	waitForGoroutines(t, base)
}

// TestRunSimTimeout: a deadline on the caller's context bounds the
// simulation stage — the run fails there, naming it, with a wrapped
// context.DeadlineExceeded.
func TestRunSimTimeout(t *testing.T) {
	cfg := smallConfig()
	cfg.SkipAccuracy = true
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	_, err := RunCtx(ctx, cfg)
	if !errors.Is(err, context.DeadlineExceeded) || !strings.HasPrefix(err.Error(), "m2td: simulation stage: ") {
		t.Fatalf("want DeadlineExceeded from the simulation stage, got %v", err)
	}
}

func TestRunFaultInjectionAccounting(t *testing.T) {
	clean := smallConfig()
	clean.SkipAccuracy = true
	cleanReport, err := RunCtx(context.Background(), clean)
	if err != nil {
		t.Fatal(err)
	}

	// The acceptance configuration: 10% transient + 2% divergent.
	cfg := smallConfig()
	cfg.SkipAccuracy = true
	cfg.Faults = &faults.Config{Seed: 99, TransientRate: 0.10, DivergentRate: 0.02}
	report, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatalf("fault-injected run must complete without error: %v", err)
	}
	if report.FaultStats == nil {
		t.Fatal("FaultStats missing")
	}
	is := *report.FaultStats
	if is.TransientSims == 0 || is.DivergentSims == 0 {
		t.Fatalf("no faults injected (%+v); raise rates or change the seed", is)
	}

	// Every injected fault is accounted for, exactly:
	// transient sims all recovered within the retry budget,
	if report.FailedSims != 0 {
		t.Fatalf("FailedSims = %d; transients should all recover", report.FailedSims)
	}
	if report.RetriedSims != is.TransientSims {
		t.Fatalf("RetriedSims %d != injected transient sims %d", report.RetriedSims, is.TransientSims)
	}
	// divergent cells all quarantined (and nothing else lost),
	cleanCells := cleanReport.Partition.Sub1.Tensor.NNZ() + cleanReport.Partition.Sub2.Tensor.NNZ()
	gotCells := report.Partition.Sub1.Tensor.NNZ() + report.Partition.Sub2.Tensor.NNZ()
	if report.QuarantinedCells == 0 || report.QuarantinedCells != cleanCells-gotCells {
		t.Fatalf("QuarantinedCells %d != lost cells %d", report.QuarantinedCells, cleanCells-gotCells)
	}
	// and the effective density is degraded accordingly.
	if report.EffectiveDensity1 >= cleanReport.EffectiveDensity1 && report.EffectiveDensity2 >= cleanReport.EffectiveDensity2 {
		t.Fatalf("densities not degraded: %g/%g vs clean %g/%g",
			report.EffectiveDensity1, report.EffectiveDensity2,
			cleanReport.EffectiveDensity1, cleanReport.EffectiveDensity2)
	}
	if report.ExecutedSims != report.NumSims {
		t.Fatalf("ExecutedSims %d != NumSims %d", report.ExecutedSims, report.NumSims)
	}
}

// TestRunFaultInjectionWithoutRetriesFailsSims: a simulation whose
// transient errors outlast the fixed budget of faults.Attempts attempts
// fails, and no retry is counted for it; the budget is exactly three, so
// each such simulation was attempted three times.
func TestRunFaultInjectionWithoutRetriesFailsSims(t *testing.T) {
	cfg := smallConfig()
	cfg.SkipAccuracy = true
	cfg.Faults = &faults.Config{Seed: 99, TransientRate: 0.10, TransientAttempts: 3}
	report, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	is := *report.FaultStats
	if is.TransientSims == 0 {
		t.Fatal("no transients injected; test is vacuous")
	}
	if report.FailedSims != is.TransientSims || report.RetriedSims != 0 {
		t.Fatalf("TransientAttempts=3: want every transient sim failed and no retries, got failed=%d retried=%d of %d",
			report.FailedSims, report.RetriedSims, is.TransientSims)
	}
	if is.TransientFailures != 3*is.TransientSims {
		t.Fatalf("%d transient failures over %d sims, want 3 attempts each", is.TransientFailures, is.TransientSims)
	}
	if report.ExecutedSims+report.FailedSims != report.NumSims {
		t.Fatalf("executed %d + failed %d != %d sims", report.ExecutedSims, report.FailedSims, report.NumSims)
	}
}

func TestRunResumeBitIdentical(t *testing.T) {
	dir := t.TempDir()

	// Uninterrupted reference pipeline (same seed, no checkpointing).
	ref := smallConfig()
	ref.SkipAccuracy = true
	refReport, err := RunCtx(context.Background(), ref)
	if err != nil {
		t.Fatal(err)
	}

	// Campaign 1: killed (cooperatively) mid-fan-out after 7 simulations.
	ctx1, cancel1 := context.WithCancel(context.Background())
	var attempts1 atomic.Int64
	cfg1 := smallConfig()
	cfg1.SkipAccuracy = true
	cfg1.CheckpointDir = dir
	cfg1.Faults = &faults.Config{Seed: 1, Hook: func() {
		if attempts1.Add(1) == 7 {
			cancel1()
		}
	}}
	_, err = RunCtx(ctx1, cfg1)
	cancel1()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("campaign 1: want Canceled, got %v", err)
	}

	// Campaign 2: resumes from the checkpoint and completes.
	var attempts2 atomic.Int64
	cfg2 := smallConfig()
	cfg2.SkipAccuracy = true
	cfg2.CheckpointDir = dir
	cfg2.Resume = true
	cfg2.Faults = &faults.Config{Seed: 1, Hook: func() { attempts2.Add(1) }}
	report, err := RunCtx(context.Background(), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if report.RestoredSims == 0 {
		t.Fatal("resume restored nothing")
	}
	if report.RestoredSims+report.ExecutedSims != report.NumSims {
		t.Fatalf("restored %d + executed %d != %d sims",
			report.RestoredSims, report.ExecutedSims, report.NumSims)
	}
	// Only the unfinished simulations re-ran.
	if got := int(attempts2.Load()); got != report.ExecutedSims {
		t.Fatalf("resumed campaign ran %d simulations, want exactly the %d unfinished ones",
			got, report.ExecutedSims)
	}
	// The decomposition, and the join tensor stitched from each run's
	// partition, are bit-identical to the uninterrupted run's.
	requireSameBits(t, "resumed vs uninterrupted", report.Decomposition, refReport.Decomposition)
	refJoin, join := stitch.Join(refReport.Partition), stitch.Join(report.Partition)
	if !reflect.DeepEqual(join.Idx, refJoin.Idx) || !reflect.DeepEqual(join.Vals, refJoin.Vals) {
		t.Fatal("resumed pipeline's join tensor is not bit-identical to the uninterrupted run's")
	}
}

// TestRunResumeRejectsForeignCheckpoint: a checkpoint is trusted only by a
// campaign with the same simulation identity. Each case writes a complete
// checkpoint, then resumes a config that differs in one
// simulation-generating field: nothing may be restored. The "sim-v2" case
// changes no field; it retags the checkpoint with the identity the same
// config had under the four-call double-pendulum kernel, whose cells
// differ from today's in their last bits.
func TestRunResumeRejectsForeignCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		name          string
		base, foreign func(*Config)
		oldKernel     bool
	}{
		{"resolution", nil, func(c *Config) { c.Resolution++ }, false},
		{"time-samples", nil, func(c *Config) { c.TimeSamples++ }, false},
		{"pivot", nil, func(c *Config) { c.Pivot = "phi1" }, false},
		{"seed-at-P<1", func(c *Config) { c.PivotDensity = 0.5 }, func(c *Config) { c.Seed++ }, false},
		{"seed-at-E<1", func(c *Config) { c.SubEnsembleDensity = 0.5 }, func(c *Config) { c.Seed++ }, false},
		{"faults", nil, func(c *Config) { c.Faults = &faults.Config{Seed: 1, DivergentRate: 0.5} }, false},
		{"sim-v2", nil, func(*Config) {}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.SkipAccuracy = true
			cfg.CheckpointDir = t.TempDir()
			if tc.base != nil {
				tc.base(&cfg)
			}
			if _, err := RunCtx(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
			if tc.oldKernel {
				retagCheckpoint(t, cfg.CheckpointDir, "sim-v3|", "sim-v2|")
			}
			cfg.Resume = true
			tc.foreign(&cfg)
			report, err := RunCtx(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if report.RestoredSims != 0 {
				t.Fatalf("restored %d sims from a foreign checkpoint", report.RestoredSims)
			}
		})
	}
}

// retagCheckpoint rewrites every simulation set in the checkpoint catalog
// at dir with its identity's prefix from replaced by to, cells unchanged.
func retagCheckpoint(t *testing.T, dir, from, to string) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	names, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	retagged := 0
	for _, name := range names {
		fp, sims, err := st.LoadSimSet(name)
		if err != nil || !strings.HasPrefix(fp, from) {
			continue
		}
		if err := st.SaveSimSet(name, to+strings.TrimPrefix(fp, from), sims); err != nil {
			t.Fatal(err)
		}
		retagged++
	}
	if retagged == 0 {
		t.Fatalf("no simulation set in %s is tagged %q…", dir, from)
	}
}

// TestRunResumeAcrossTransientAttemptSpellings: faults.New runs an attempt
// count below 1 as 1, so {TransientAttempts: 0} and {TransientAttempts: 1}
// simulate one ensemble, and a checkpoint written under the one spelling
// is resumed under the other: every simulation restored, none executed.
func TestRunResumeAcrossTransientAttemptSpellings(t *testing.T) {
	cfg := smallConfig()
	cfg.SkipAccuracy = true
	cfg.CheckpointDir = t.TempDir()
	cfg.Faults = &faults.Config{Seed: 1, TransientRate: 0.1}
	first, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.RetriedSims == 0 || first.ExecutedSims != first.NumSims {
		t.Fatalf("producer retried %d and executed %d of %d sims; the drill needs retries and no failure",
			first.RetriedSims, first.ExecutedSims, first.NumSims)
	}
	cfg.Faults = &faults.Config{Seed: 1, TransientRate: 0.1, TransientAttempts: 1}
	cfg.Resume = true
	resumed, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.RestoredSims != resumed.NumSims || resumed.ExecutedSims != 0 {
		t.Fatalf("restored %d, executed %d of %d sims", resumed.RestoredSims, resumed.ExecutedSims, resumed.NumSims)
	}
	requireSameBits(t, "resumed under the other spelling", resumed.Decomposition, first.Decomposition)
}

// TestRunResumeAcrossLatencySpellings: injected latency delays a
// simulation and changes no cell, so a checkpoint written without it is
// resumed by a config that adds it: every simulation restored, none
// executed.
func TestRunResumeAcrossLatencySpellings(t *testing.T) {
	cfg := smallConfig()
	cfg.SkipAccuracy = true
	cfg.CheckpointDir = t.TempDir()
	cfg.Faults = &faults.Config{Seed: 1, TransientRate: 0.1}
	first, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &faults.Config{Seed: 1, TransientRate: 0.1, LatencyRate: 0.5, Latency: time.Microsecond}
	cfg.Resume = true
	resumed, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.RestoredSims != resumed.NumSims || resumed.ExecutedSims != 0 {
		t.Fatalf("restored %d, executed %d of %d sims", resumed.RestoredSims, resumed.ExecutedSims, resumed.NumSims)
	}
	requireSameBits(t, "resumed with latency", resumed.Decomposition, first.Decomposition)
}

// TestLatencyOnlyCampaignResumesACleanCheckpoint: an injector with only
// latency (no transient, divergent or panic rate) computes the clean
// cells and shares the clean identity, so it resumes every simulation of
// a checkpoint written without any injector and decomposes them to the
// same bits.
func TestLatencyOnlyCampaignResumesACleanCheckpoint(t *testing.T) {
	cfg := smallConfig()
	cfg.SkipAccuracy = true
	cfg.CheckpointDir = t.TempDir()
	first, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = &faults.Config{Seed: 1, LatencyRate: 0.5, Latency: time.Microsecond}
	cfg.Resume = true
	resumed, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.RestoredSims != resumed.NumSims || resumed.ExecutedSims != 0 {
		t.Fatalf("restored %d, executed %d of %d sims", resumed.RestoredSims, resumed.ExecutedSims, resumed.NumSims)
	}
	requireSameBits(t, "latency-only resume of a clean checkpoint", resumed.Decomposition, first.Decomposition)
}

// TestFaultedRunUsesTheCachedSpace: faults are decided per simulation
// attempt in the fan-out, so a faulted campaign simulates over the same
// cached space as a clean one, and its reference and ground truth are that
// space's.
func TestFaultedRunUsesTheCachedSpace(t *testing.T) {
	cfg := smallConfig()
	cfg.SkipAccuracy = true
	cfg.Faults = &faults.Config{Seed: 99, TransientRate: 0.1, DivergentRate: 0.02}
	report, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	space, err := cfg.Space()
	if err != nil {
		t.Fatal(err)
	}
	if report.Space != space {
		t.Fatal("a faulted run's Report.Space is not the cached Config.Space()")
	}
}

// TestRunResumeSharesEnsembleAcrossDecompositions is the positive twin: at
// P = E = 1 with a named pivot the seed draws nothing, so a campaign that
// differs from the checkpoint's writer in seed, rank and method restores
// every simulation, executes none, and decomposes to the bits an
// un-resumed run of its own config produces.
func TestRunResumeSharesEnsembleAcrossDecompositions(t *testing.T) {
	var attempts atomic.Int64
	cfg := smallConfig()
	cfg.SkipAccuracy = true
	cfg.Pivot = "t"
	cfg.CheckpointDir = t.TempDir()
	cfg.Faults = &faults.Config{Seed: 1, Hook: func() { attempts.Add(1) }}
	first, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if first.ExecutedSims != first.NumSims || int(attempts.Load()) != first.NumSims {
		t.Fatalf("producer executed %d of %d sims in %d attempts", first.ExecutedSims, first.NumSims, attempts.Load())
	}

	cfg.Seed++
	cfg.Rank, cfg.Method = 3, MethodAVG
	cfg.Resume = true
	resumed, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.RestoredSims != resumed.NumSims || resumed.ExecutedSims != 0 {
		t.Fatalf("restored %d, executed %d of %d sims", resumed.RestoredSims, resumed.ExecutedSims, resumed.NumSims)
	}
	if int(attempts.Load()) != first.NumSims {
		t.Fatalf("the resumed campaign ran %d simulations", int(attempts.Load())-first.NumSims)
	}

	cfg.CheckpointDir, cfg.Resume = "", false
	fresh, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "restored ensemble vs un-resumed run", resumed.Decomposition, fresh.Decomposition)
}

// TestWorkersFactoredRejectedBeforeAnySimulation: the Workers×Factored
// exclusion is refused with its siblings in resolve() — before the
// simulation fan-out, not after it — by both entry points: the fault
// injector sees no attempt and the checkpoint catalog gets no object.
func TestWorkersFactoredRejectedBeforeAnySimulation(t *testing.T) {
	var attempts atomic.Int64
	cfg := smallConfig()
	cfg.Workers, cfg.Factored = 2, true
	cfg.Faults = &faults.Config{Seed: 1, Hook: func() { attempts.Add(1) }}
	cfg.CheckpointDir = t.TempDir()
	if _, err := RunCtx(context.Background(), cfg); err == nil {
		t.Fatal("RunCtx accepted Workers with Factored")
	}
	if _, err := BaselineCtx(context.Background(), cfg, "random", 40); err == nil {
		t.Fatal("BaselineCtx accepted Workers with Factored")
	}
	if n := attempts.Load(); n != 0 {
		t.Fatalf("%d simulation attempts ran before the rejection", n)
	}
	objects, err := os.ReadDir(cfg.CheckpointDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(objects) != 0 {
		t.Fatalf("rejected campaign left %d checkpoint objects", len(objects))
	}
}

func TestBaselineCtxFaultTolerant(t *testing.T) {
	cfg := smallConfig()
	cfg.SkipAccuracy = true
	cfg.Faults = &faults.Config{Seed: 13, TransientRate: 0.2, DivergentRate: 0.1}
	report, err := BaselineCtx(context.Background(), cfg, "random", 40)
	if err != nil {
		t.Fatal(err)
	}
	if report.FaultStats == nil || report.FaultStats.TransientSims == 0 {
		t.Fatalf("no transients observed: %+v", report.FaultStats)
	}
	if report.FailedSims != 0 {
		t.Fatalf("recoverable faults failed %d sims", report.FailedSims)
	}
	if report.QuarantinedCells == 0 {
		t.Fatal("divergent sims produced no quarantined cells")
	}
}

// TestSimulationAccountingInvariant: the paper's tables compare M2TD with
// the conventional schemes at an equal simulation budget, so both
// pipelines must account for a budget the same way — every requested
// simulation is exactly one of executed, restored or failed, and cells
// are missing only where simulations failed. Both patterns run against the
// fixed budget of three attempts: transients that clear on the second
// attempt are all retried and none fails, and transients that last three
// attempts exhaust the budget (the baseline once counted such a failed run
// as executed too), each after exactly three attempts.
func TestSimulationAccountingInvariant(t *testing.T) {
	// Each pattern is the number of attempts its transient sims fail.
	patterns := map[string]int{"transients-recovered": 2, "retries-exhausted": 3}
	// Each pipeline returns its report and the cells its simulations
	// stored; at the time pivot every simulation is asked for T of them.
	pipelines := map[string]func(Config) (*Report, int, error){
		"run": func(c Config) (*Report, int, error) {
			r, err := RunCtx(context.Background(), c)
			if err != nil {
				return nil, 0, err
			}
			return r, r.Partition.Sub1.Tensor.NNZ() + r.Partition.Sub2.Tensor.NNZ(), nil
		},
		"baseline": func(c Config) (*Report, int, error) {
			r, err := BaselineCtx(context.Background(), c, "random", 72)
			if err != nil {
				return nil, 0, err
			}
			return r, r.JoinCells, nil
		},
	}
	for pattern, transientAttempts := range patterns {
		for pipeline, run := range pipelines {
			t.Run(pattern+"/"+pipeline, func(t *testing.T) {
				cfg := Config{Resolution: 6, SkipAccuracy: true}
				cfg.Faults = &faults.Config{Seed: 3, TransientRate: 0.5, TransientAttempts: transientAttempts}
				r, cells, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				is := *r.FaultStats
				if is.TransientSims == 0 {
					t.Fatal("no transients injected; the drill tests nothing")
				}
				if transientAttempts == 3 {
					if r.FailedSims != is.TransientSims || r.RetriedSims != 0 {
						t.Errorf("failed %d, retried %d, want every one of the %d transient sims failed",
							r.FailedSims, r.RetriedSims, is.TransientSims)
					}
					if is.TransientFailures != 3*is.TransientSims {
						t.Errorf("%d transient failures over %d sims, want the budget of 3 attempts each",
							is.TransientFailures, is.TransientSims)
					}
				} else if r.RetriedSims != is.TransientSims || r.FailedSims != 0 {
					t.Errorf("retried %d, failed %d, want every one of the %d transient sims retried",
						r.RetriedSims, r.FailedSims, is.TransientSims)
				}
				if r.NumSims != 72 {
					t.Fatalf("budget %d, want 72", r.NumSims)
				}
				if got := r.ExecutedSims + r.RestoredSims + r.FailedSims; got != r.NumSims {
					t.Errorf("executed %d + restored %d + failed %d = %d, want the budget %d",
						r.ExecutedSims, r.RestoredSims, r.FailedSims, got, r.NumSims)
				}
				if want := r.ExecutedSims * 6; cells+r.QuarantinedCells != want {
					t.Errorf("%d cells stored + %d quarantined, want %d from %d executed simulations",
						cells, r.QuarantinedCells, want, r.ExecutedSims)
				}
			})
		}
	}
}

// TestRunAutoPivotHonoursCancellation: pivot selection runs five pilot
// campaigns before the campaign proper; they are the caller's to cancel.
func TestRunAutoPivotHonoursCancellation(t *testing.T) {
	executed := func() any { return obs.Default.Snapshot()["m2td_sims_executed_total"] }
	before := executed()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := smallConfig()
	cfg.Pivot = "auto"
	_, err := RunCtx(ctx, cfg)
	if !errors.Is(err, context.Canceled) || err == context.Canceled {
		t.Fatalf("want a wrapped context.Canceled, got %v", err)
	}
	if after := executed(); after != before {
		t.Fatalf("a cancelled auto-pivot run simulated: m2td_sims_executed_total %v -> %v", before, after)
	}
}
