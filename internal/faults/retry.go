package faults

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"
)

// Transient marks an error as retryable: the failure is expected to clear
// on a re-run (flaky solver licence, lost worker, injected fault). The
// retry policy retries only transient errors and per-attempt timeouts;
// everything else is fatal for the run.
type Transient struct{ Err error }

// Error implements error.
func (t *Transient) Error() string { return "transient: " + t.Err.Error() }

// Unwrap exposes the wrapped cause.
func (t *Transient) Unwrap() error { return t.Err }

// IsTransient reports whether any error in err's chain is *Transient.
func IsTransient(err error) bool {
	var t *Transient
	return errors.As(err, &t)
}

// PanicError records a captured simulation panic: a crashed run converted
// into an error value instead of a dead process. Panics are fatal — they
// indicate a programming error or corrupted state, not a flaky dependency —
// so the retry policy never retries them.
type PanicError struct {
	Val   any
	Stack []byte
}

// Error implements error.
func (p *PanicError) Error() string { return fmt.Sprintf("simulation panicked: %v", p.Val) }

// RetryPolicy bounds how hard the runtime tries to complete one simulation
// run: at most MaxAttempts attempts, exponential backoff with seeded
// jitter between them, and an optional per-attempt timeout. The zero value
// normalizes to sensible defaults (3 attempts, 2ms base backoff, 250ms
// cap, ±25% jitter, no per-attempt timeout).
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per run (default 3;
	// set 1 to disable retries).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; it doubles per
	// attempt (default 2ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 250ms).
	MaxBackoff time.Duration
	// JitterFrac spreads each backoff by ±this fraction, deterministically
	// from the run key, so retry storms de-synchronise without making
	// campaigns irreproducible (default 0.25).
	JitterFrac float64
	// AttemptTimeout bounds each attempt with a context deadline
	// (0 = none). A timed-out attempt counts as transient.
	AttemptTimeout time.Duration
}

func (p RetryPolicy) normalize() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 2 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 250 * time.Millisecond
	}
	if p.JitterFrac <= 0 {
		p.JitterFrac = 0.25
	}
	return p
}

// Run executes fn under the policy and returns the number of attempts made
// and the final error (nil on success).
//
//   - Panics inside fn are captured into *PanicError and returned
//     immediately (fatal, never retried).
//   - *Transient errors — and per-attempt deadline expiries while the
//     parent context is still live — are retried with exponential backoff
//     until MaxAttempts is exhausted.
//   - Parent-context cancellation aborts immediately, including during a
//     backoff sleep, returning the context's error.
//
// key seeds the backoff jitter; pass the simulation's deterministic
// identity (faults.SimKey) so resumed campaigns sleep identically.
func (p RetryPolicy) Run(ctx context.Context, key uint64, fn func(ctx context.Context) error) (int, error) {
	p = p.normalize()
	for attempt := 1; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return attempt - 1, cerr
		}
		err := p.attempt(ctx, fn)
		if err == nil {
			return attempt, nil
		}
		var pe *PanicError
		if errors.As(err, &pe) {
			return attempt, err
		}
		if cerr := ctx.Err(); cerr != nil {
			return attempt, cerr
		}
		retryable := IsTransient(err) || errors.Is(err, context.DeadlineExceeded)
		if !retryable || attempt >= p.MaxAttempts {
			return attempt, err
		}
		timer := time.NewTimer(p.backoff(key, attempt))
		select {
		case <-ctx.Done():
			timer.Stop()
			return attempt, ctx.Err()
		case <-timer.C:
		}
	}
}

// attempt runs fn once with the per-attempt deadline and panic capture.
func (p RetryPolicy) attempt(ctx context.Context, fn func(ctx context.Context) error) (err error) {
	actx := ctx
	if p.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, p.AttemptTimeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 8192)
			err = &PanicError{Val: r, Stack: buf[:runtime.Stack(buf, false)]}
		}
	}()
	return fn(actx)
}

// backoff computes the sleep before retry `attempt+1`: exponential from
// BaseBackoff, capped at MaxBackoff, spread by ±JitterFrac using a
// deterministic draw from (key, attempt). It is a pure function of (policy,
// key, attempt) — no process-local state, no clock — so a resumed campaign
// sleeps as the interrupted one did.
func (p RetryPolicy) backoff(key uint64, attempt int) time.Duration {
	d := p.BaseBackoff
	for i := 1; i < attempt && d < p.MaxBackoff; i++ {
		d *= 2
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	u := unit(key, 0x6261636b6f666600+uint64(attempt)) // "backoff"
	factor := 1 + p.JitterFrac*(2*u-1)
	return time.Duration(float64(d) * factor)
}
