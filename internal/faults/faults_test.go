package faults

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// grid returns nSims distinct parameter-value pairs.
func grid(nSims int) [][]float64 {
	out := make([][]float64, nSims)
	for i := range out {
		out[i] = []float64{float64(i) / float64(nSims), float64(i%7) / 7}
	}
	return out
}

// runToCompletion attempts one simulation through the injector until an
// attempt is not transient or maxAttempts ran out, returning (succeeded,
// sawTransient, divergent).
func runToCompletion(t *testing.T, in *Injector, vals []float64, maxAttempts int) (bool, bool, bool) {
	t.Helper()
	sawTransient := false
	for a := 0; a < maxAttempts; a++ {
		diverge, err := in.Inject(context.Background(), vals)
		if err != nil {
			if !transient(err) {
				t.Fatalf("unexpected non-transient error: %v", err)
			}
			sawTransient = true
			continue
		}
		return true, sawTransient, diverge
	}
	return false, sawTransient, false
}

func TestInjectionDeterministicAcrossInjectorsAndOrder(t *testing.T) {
	cfg := Config{Seed: 42, TransientRate: 0.3, DivergentRate: 0.2}
	sims := grid(200)

	type outcome struct{ transient, divergent bool }
	collect := func(order []int) map[int]outcome {
		in := New(cfg)
		out := make(map[int]outcome)
		for _, i := range order {
			ok, tr, dv := runToCompletion(t, in, sims[i], 5)
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
	vals := []float64{0.5, 0.25}
	for a := 1; a <= 2; a++ {
		if _, err := in.Inject(context.Background(), vals); !transient(err) {
			t.Fatalf("attempt %d: want transient error, got %v", a, err)
		}
	}
	if _, err := in.Inject(context.Background(), vals); err != nil {
		t.Fatalf("attempt 3: want success, got %v", err)
	}
	s := in.Stats()
	if s.TransientSims != 1 || s.TransientFailures != 2 || s.Attempts != 3 {
		t.Fatalf("stats = %+v, want 1 transient sim, 2 failures, 3 attempts", s)
	}
}

// TestDivergentSimulationIsDecidedNotFailed: a divergent attempt is no
// error — the simulation completes, and its caller stores non-finite cells —
// and it is counted once per simulation however often it is attempted.
// Panic is decided before transient, and transient before divergence.
func TestDivergentSimulationIsDecidedNotFailed(t *testing.T) {
	in := New(Config{Seed: 1, DivergentRate: 1})
	for range 2 {
		if diverge, err := in.Inject(context.Background(), []float64{0.1, 0.9}); !diverge || err != nil {
			t.Fatalf("Inject = (%v, %v), want (true, nil)", diverge, err)
		}
	}
	if s := in.Stats(); s.DivergentSims != 1 || s.Attempts != 2 {
		t.Fatalf("stats = %+v, want 1 divergent sim over 2 attempts", s)
	}
	in = New(Config{Seed: 3, TransientRate: 1, DivergentRate: 1})
	if diverge, err := in.Inject(context.Background(), []float64{0.3, 0.6}); diverge || !transient(err) {
		t.Fatalf("transient and divergent: Inject = (%v, %v), want the transient error first", diverge, err)
	}
	in = New(Config{Seed: 3, TransientRate: 1, DivergentRate: 1, PanicRate: 1})
	_, err := Run(context.Background(), func() error {
		_, err := in.Inject(context.Background(), []float64{0.3, 0.6})
		return err
	})
	if !errors.As(err, new(*PanicError)) {
		t.Fatalf("every fault at rate 1: err %v, want the panic first", err)
	}
	if s := in.Stats(); s.PanickedSims != 1 || s.TransientSims != 0 || s.DivergentSims != 0 {
		t.Fatalf("stats = %+v, want the panic alone", s)
	}
}

func TestLatencyHonoursCancellation(t *testing.T) {
	in := New(Config{Seed: 5, LatencyRate: 1, Latency: 10 * time.Second})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := in.Inject(ctx, []float64{0.2, 0.4})
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
	ctx := context.Background()
	attempts, err := Run(ctx, func() error {
		_, e := in.Inject(ctx, []float64{0.7, 0.1})
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
	ctx := context.Background()
	if _, err := Run(ctx, func() error {
		_, e := in.Inject(ctx, []float64{0.9, 0.9})
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
