package faults

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/dynsys"
)

// stubSys is a trivial deterministic System for injection tests.
type stubSys struct{}

func (stubSys) Name() string { return "stub" }
func (stubSys) Params() []dynsys.Param {
	return []dynsys.Param{{Name: "a", Min: 0, Max: 1}, {Name: "b", Min: 0, Max: 1}}
}
func (stubSys) StateDim() int { return 1 }
func (stubSys) Trajectory(vals []float64, n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = []float64{vals[0] + float64(i)*vals[1]}
	}
	return out
}

// grid returns nSims distinct parameter-value pairs.
func grid(nSims int) [][]float64 {
	out := make([][]float64, nSims)
	for i := range out {
		out[i] = []float64{float64(i) / float64(nSims), float64(i%7) / 7}
	}
	return out
}

// runToCompletion drives one simulation through the injector until success
// or maxAttempts, returning (succeeded, sawTransient, divergent).
func runToCompletion(t *testing.T, sys dynsys.System, vals []float64, maxAttempts int) (bool, bool, bool) {
	t.Helper()
	sawTransient := false
	for a := 0; a < maxAttempts; a++ {
		traj, err := dynsys.TrajectoryCtx(context.Background(), sys, vals, 4)
		if err != nil {
			if !transient(err) {
				t.Fatalf("unexpected non-transient error: %v", err)
			}
			sawTransient = true
			continue
		}
		return true, sawTransient, math.IsNaN(traj[0][0])
	}
	return false, sawTransient, false
}

func TestInjectionDeterministicAcrossInjectorsAndOrder(t *testing.T) {
	cfg := Config{Seed: 42, TransientRate: 0.3, DivergentRate: 0.2}
	sims := grid(200)

	type outcome struct{ transient, divergent bool }
	collect := func(order []int) map[int]outcome {
		sys := New(cfg).Wrap(stubSys{})
		out := make(map[int]outcome)
		for _, i := range order {
			ok, tr, dv := runToCompletion(t, sys, sims[i], 5)
			if !ok {
				t.Fatalf("sim %d never succeeded", i)
			}
			out[i] = outcome{tr, dv}
		}
		return out
	}

	fwd := make([]int, len(sims))
	rev := make([]int, len(sims))
	for i := range fwd {
		fwd[i] = i
		rev[i] = len(sims) - 1 - i
	}
	a, b := collect(fwd), collect(rev)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sim %d outcome depends on execution order: %+v vs %+v", i, a[i], b[i])
		}
	}
	nTransient, nDivergent := 0, 0
	for _, o := range a {
		if o.transient {
			nTransient++
		}
		if o.divergent {
			nDivergent++
		}
	}
	// Loose binomial bounds around the configured rates.
	if nTransient < 30 || nTransient > 90 {
		t.Errorf("transient count %d wildly off 200·0.3", nTransient)
	}
	if nDivergent < 15 || nDivergent > 70 {
		t.Errorf("divergent count %d wildly off 200·0.2", nDivergent)
	}
}

func TestTransientClearsAfterConfiguredAttempts(t *testing.T) {
	cfg := Config{Seed: 7, TransientRate: 1, TransientAttempts: 2}
	in := New(cfg)
	sys := in.Wrap(stubSys{})
	vals := []float64{0.5, 0.25}
	for a := 1; a <= 2; a++ {
		if _, err := dynsys.TrajectoryCtx(context.Background(), sys, vals, 4); !transient(err) {
			t.Fatalf("attempt %d: want transient error, got %v", a, err)
		}
	}
	if _, err := dynsys.TrajectoryCtx(context.Background(), sys, vals, 4); err != nil {
		t.Fatalf("attempt 3: want success, got %v", err)
	}
	s := in.Stats()
	if s.TransientSims != 1 || s.TransientFailures != 2 || s.Attempts != 3 {
		t.Fatalf("stats = %+v, want 1 transient sim, 2 failures, 3 attempts", s)
	}
}

func TestDivergentTrajectoryIsAllNaN(t *testing.T) {
	sys := New(Config{Seed: 1, DivergentRate: 1}).Wrap(stubSys{})
	traj, err := dynsys.TrajectoryCtx(context.Background(), sys, []float64{0.1, 0.9}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range traj {
		for j, v := range st {
			if !math.IsNaN(v) {
				t.Fatalf("traj[%d][%d] = %v, want NaN", i, j, v)
			}
		}
	}
}

func TestPlainTrajectoryPassthroughStaysClean(t *testing.T) {
	// 100% fault rates on the fallible path must leave the plain
	// Trajectory path (reference + ground truth) untouched.
	sys := New(Config{Seed: 3, TransientRate: 1, DivergentRate: 1, PanicRate: 1}).Wrap(stubSys{})
	want := stubSys{}.Trajectory([]float64{0.3, 0.6}, 6)
	got := sys.Trajectory([]float64{0.3, 0.6}, 6)
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("passthrough altered trajectory at [%d][%d]", i, j)
			}
		}
	}
}

func TestLatencyHonoursCancellation(t *testing.T) {
	sys := New(Config{Seed: 5, LatencyRate: 1, Latency: 10 * time.Second}).Wrap(stubSys{})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := dynsys.TrajectoryCtx(ctx, sys, []float64{0.2, 0.4}, 4)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("latency sleep was not interrupted by cancellation")
	}
}

func TestSimKeyDeterministicAndDistinct(t *testing.T) {
	a := simKey(1, []float64{0.1, 0.2})
	if b := simKey(1, []float64{0.1, 0.2}); a != b {
		t.Fatalf("simKey not deterministic: %x vs %x", a, b)
	}
	if b := simKey(1, []float64{0.2, 0.1}); a == b {
		t.Fatalf("simKey ignores value order")
	}
	if b := simKey(2, []float64{0.1, 0.2}); a == b {
		t.Fatalf("simKey ignores seed")
	}
}

func TestRetryRunRecoversTransient(t *testing.T) {
	calls := 0
	attempts, err := Run(context.Background(), func() error {
		calls++
		if calls < 3 {
			return &Transient{Err: errors.New("flaky")}
		}
		return nil
	})
	if err != nil || attempts != 3 {
		t.Fatalf("Run = (%d, %v), want (3, nil)", attempts, err)
	}
}

func TestRetryRunExhaustsBudget(t *testing.T) {
	calls := 0
	attempts, err := Run(context.Background(), func() error {
		calls++
		return &Transient{Err: errors.New("never clears")}
	})
	if attempts != 3 || calls != 3 || !transient(err) {
		t.Fatalf("Run = (%d, %v) after %d calls, want 3 attempts and the transient error", attempts, err, calls)
	}
}

func TestRetryRunNeverRetriesFatal(t *testing.T) {
	calls := 0
	fatal := errors.New("fatal")
	attempts, err := Run(context.Background(), func() error {
		calls++
		return fatal
	})
	if attempts != 1 || calls != 1 || !errors.Is(err, fatal) {
		t.Fatalf("fatal error was retried: attempts=%d calls=%d err=%v", attempts, calls, err)
	}
}

func TestRetryRunCapturesPanic(t *testing.T) {
	calls := 0
	attempts, err := Run(context.Background(), func() error {
		calls++
		panic("boom")
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want PanicError, got %v", err)
	}
	if pe.Val != "boom" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError = %+v, want captured value and stack", pe)
	}
	if attempts != 1 || calls != 1 {
		t.Fatalf("panicked run was retried: attempts=%d calls=%d", attempts, calls)
	}
}

func TestRetryRunAbortsOnParentCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	attempts, err := Run(ctx, func() error {
		calls++
		cancel() // cancel mid-first-attempt: no second attempt may start
		return &Transient{Err: errors.New("flaky")}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	if attempts != 1 || calls != 1 {
		t.Fatalf("cancelled run kept retrying: attempts=%d calls=%d", attempts, calls)
	}
	if attempts, err := Run(ctx, func() error { calls++; return nil }); attempts != 0 || !errors.Is(err, context.Canceled) || calls != 1 {
		t.Fatalf("Run under a cancelled ctx = (%d, %v), want (0, Canceled) and no call", attempts, err)
	}
}

func TestInjectedPanicIsCapturedByRetry(t *testing.T) {
	in := New(Config{Seed: 11, PanicRate: 1})
	sys := in.Wrap(stubSys{})
	ctx := context.Background()
	attempts, err := Run(ctx, func() error {
		_, e := dynsys.TrajectoryCtx(ctx, sys, []float64{0.7, 0.1}, 4)
		return e
	})
	var pe *PanicError
	if !errors.As(err, &pe) || attempts != 1 {
		t.Fatalf("injected panic not captured as fatal: attempts=%d err=%v", attempts, err)
	}
	if in.Stats().PanickedSims != 1 {
		t.Fatalf("injector did not account the panic: %+v", in.Stats())
	}
}

func TestHookObservesEveryAttempt(t *testing.T) {
	var hooked int
	in := New(Config{Seed: 2, TransientRate: 1, TransientAttempts: 1, Hook: func() { hooked++ }})
	sys := in.Wrap(stubSys{})
	ctx := context.Background()
	if _, err := Run(ctx, func() error {
		_, e := dynsys.TrajectoryCtx(ctx, sys, []float64{0.9, 0.9}, 4)
		return e
	}); err != nil {
		t.Fatal(err)
	}
	if hooked != 2 { // transient first attempt + successful retry
		t.Fatalf("hook saw %d attempts, want 2", hooked)
	}
}

func ExampleRun() {
	calls := 0
	attempts, err := Run(context.Background(), func() error {
		calls++
		if calls == 1 {
			return &Transient{Err: errors.New("worker lost")}
		}
		return nil
	})
	fmt.Println(attempts, err)
	// Output: 2 <nil>
}

// TestRunAllocatesNothingOnSuccess: a successful attempt costs the fan-out
// no allocation; only a failed one asks whether its error is transient.
func TestRunAllocatesNothingOnSuccess(t *testing.T) {
	ctx := context.Background()
	fn := func() error { return nil }
	if n := testing.AllocsPerRun(100, func() { Run(ctx, fn) }); n != 0 {
		t.Fatalf("Run allocated %v times per successful call, want 0", n)
	}
}
