package faults

import (
	"context"
	"errors"
	"fmt"
	"runtime"
)

// Transient marks an error as retryable: the failure is expected to clear
// on a re-run (flaky solver licence, lost worker, injected fault). Run
// retries only transient errors; everything else is fatal for the run.
type Transient struct{ Err error }

// Error implements error.
func (t *Transient) Error() string { return "transient: " + t.Err.Error() }

// Unwrap exposes the wrapped cause.
func (t *Transient) Unwrap() error { return t.Err }

// PanicError records a captured simulation panic: a crashed run converted
// into an error value instead of a dead process. Panics are fatal — they
// indicate a programming error or corrupted state, not a flaky dependency —
// so Run never retries them.
type PanicError struct {
	Val   any
	Stack []byte
}

// Error implements error.
func (p *PanicError) Error() string { return fmt.Sprintf("simulation panicked: %v", p.Val) }

// Attempts is every simulation's attempt budget: the first run and two
// retries. A simulation still failing after it is lost, and its slice is
// simply absent from the ensemble.
const Attempts = 3

// Run executes fn, at most Attempts times, and returns the number of
// attempts made and the final error (nil on success).
//
//   - A *Transient error is retried at once.
//   - A panic inside fn is captured into *PanicError and is fatal.
//   - Any other error is fatal.
//   - A cancelled ctx stops Run before the next attempt, and Run returns
//     the context's error.
func Run(ctx context.Context, fn func() error) (attempts int, err error) {
	for attempts < Attempts {
		if cerr := ctx.Err(); cerr != nil {
			return attempts, cerr
		}
		attempts++
		if err = capture(fn); err == nil || !transient(err) {
			return attempts, err
		}
	}
	return attempts, err
}

// transient reports whether err's chain holds a *Transient. It is asked
// only of a failed attempt: the target escapes, so a success allocates
// nothing.
func transient(err error) bool {
	var t *Transient
	return errors.As(err, &t)
}

// capture runs fn once, converting a panic into a *PanicError.
func capture(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 8192)
			err = &PanicError{Val: r, Stack: buf[:runtime.Stack(buf, false)]}
		}
	}()
	return fn()
}
