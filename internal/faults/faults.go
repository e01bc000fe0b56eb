// Package faults is the fault-injection and retry layer of the pipeline
// runtime. The paper's premise is that the simulation budget B is the
// scarce resource: a production ensemble service cannot afford to lose a
// campaign to one crashed or divergent solver. This package provides
//
//   - a seeded, DETERMINISTIC fault-injection harness (Injector) whose
//     Inject decides, for one attempt of one simulation, whether it
//     panics, fails transiently, diverges (non-finite cells) or is
//     delayed, at configurable rates — every decision is a pure function
//     of the seed, the simulation's parameter values and its attempt
//     number, never of timing or execution order, so campaigns are
//     reproducible under any worker count and across resumed runs. The
//     simulation fan-out (ensemble.SimOptions.Faults) asks it once per
//     attempt; nothing else does, so reference trajectories and ground
//     truths are never faulted;
//   - Run (retry.go), the simulation fan-out's one failure rule: a
//     transient error is retried at once, Attempts (3) attempts in all,
//     and anything else is fatal; and
//   - panic capture that converts a crashed simulation into a recorded
//     failure instead of a dead process.
//
// Failure taxonomy (see DESIGN.md "Fault tolerance & resumability"):
//
//   - transient — the run errors but a retry succeeds; accounted as a
//     retried simulation.
//   - divergent — the run completes but produces non-finite values; its
//     requested cells are dropped where they would be stored
//     (ensemble.SimStats.Keep) and accounted as quarantined cells.
//   - fatal — the run panics, returns a non-transient error, or is still
//     transient after Attempts attempts; it is recorded as a failed
//     simulation and its cells are simply absent from the sub-ensemble
//     (the slice-sampling tensor-completion assumption: some sampled
//     slices never arrive).
package faults

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"
)

// Config configures deterministic fault injection. All rates are
// probabilities in [0, 1] evaluated independently per simulation (keyed by
// the simulation's parameter values and Seed).
type Config struct {
	// Seed drives every injection decision; identical seeds reproduce
	// identical fault patterns regardless of scheduling.
	Seed int64
	// TransientRate is the fraction of simulations that fail with a
	// retryable error on their first TransientAttempts attempts.
	TransientRate float64
	// TransientAttempts is how many consecutive attempts of an affected
	// simulation fail before it succeeds (default 1, so one retry
	// recovers it; at Attempts or more, Run's budget runs out first and
	// the simulation fails).
	TransientAttempts int
	// DivergentRate is the fraction of simulations whose cells are all
	// NaN — modelling a divergent solver whose output must be quarantined
	// downstream.
	DivergentRate float64
	// PanicRate is the fraction of simulations that panic (a fatal fault:
	// captured, recorded as a failed run, never retried).
	PanicRate float64
	// LatencyRate is the fraction of simulations delayed by Latency
	// before running (context-aware: cancellation interrupts the sleep).
	LatencyRate float64
	// Latency is the injected delay for latency-affected simulations.
	Latency time.Duration
	// Hook, when non-nil, is invoked at the start of every injected
	// simulation attempt. Test harnesses use it to count executed
	// simulations and to cancel campaigns mid-flight.
	Hook func()
}

// Stats is the injector's accounting, used by tests and reports to verify
// that the pipeline's failure accounting balances exactly against what was
// injected.
type Stats struct {
	// Attempts counts fallible simulation attempts observed.
	Attempts int
	// TransientFailures counts injected transient error returns (a single
	// simulation contributes TransientAttempts of these).
	TransientFailures int
	// TransientSims counts distinct simulations given transient faults.
	TransientSims int
	// DivergentSims counts distinct simulations whose output was made
	// non-finite.
	DivergentSims int
	// PanickedSims counts distinct simulations that panicked.
	PanickedSims int
	// DelayedSims counts distinct simulations that were delayed.
	DelayedSims int
}

// Injector injects faults per its Config. It is safe for concurrent use.
type Injector struct {
	cfg Config

	mu            sync.Mutex
	attempts      map[uint64]int
	transientSeen map[uint64]bool
	divergentSeen map[uint64]bool
	panicSeen     map[uint64]bool
	delaySeen     map[uint64]bool
	stats         Stats
}

// New returns an injector for the config.
func New(cfg Config) *Injector {
	if cfg.TransientAttempts < 1 {
		cfg.TransientAttempts = 1
	}
	return &Injector{
		cfg:           cfg,
		attempts:      make(map[uint64]int),
		transientSeen: make(map[uint64]bool),
		divergentSeen: make(map[uint64]bool),
		panicSeen:     make(map[uint64]bool),
		delaySeen:     make(map[uint64]bool),
	}
}

// Stats returns a snapshot of the injection accounting.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// Salts for the independent per-fault hash draws.
const (
	saltTransient = 0x7472616e7369656e // "transien"
	saltDivergent = 0x6469766572676500 // "diverge"
	saltPanic     = 0x70616e6963000000 // "panic"
	saltLatency   = 0x6c6174656e637900 // "latency"
)

// Inject decides the injected faults of one attempt of the simulation at
// the parameter values vals, before it runs: it may sleep (latency), panic,
// or return a *Transient error. Otherwise it reports whether the
// simulation diverges — its caller then stores non-finite cells, which the
// ingest quarantine (ensemble.SimStats.Keep) drops. The steps run in a
// fixed order: Hook, the context check, the simulation's attempt number,
// then latency, panic, transient and divergence.
func (in *Injector) Inject(ctx context.Context, vals []float64) (diverge bool, err error) {
	cfg := in.cfg
	if cfg.Hook != nil {
		cfg.Hook()
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	key := simKey(cfg.Seed, vals)
	attempt := in.nextAttempt(key)

	// Artificial latency (context-aware).
	if cfg.LatencyRate > 0 && unit(key, saltLatency) < cfg.LatencyRate {
		in.noteOnce(in.delaySeen, key, func(s *Stats) { s.DelayedSims++ })
		if cfg.Latency > 0 {
			timer := time.NewTimer(cfg.Latency)
			select {
			case <-ctx.Done():
				timer.Stop()
				return false, ctx.Err()
			case <-timer.C:
			}
		}
	}
	// Simulation panic (fatal: the retry harness captures it and records a
	// failed run).
	if cfg.PanicRate > 0 && unit(key, saltPanic) < cfg.PanicRate {
		in.noteOnce(in.panicSeen, key, func(s *Stats) { s.PanickedSims++ })
		panic(fmt.Sprintf("faults: injected simulation panic (sim %016x attempt %d)", key, attempt))
	}
	// Transient failure on the first TransientAttempts attempts.
	if cfg.TransientRate > 0 && unit(key, saltTransient) < cfg.TransientRate && attempt <= cfg.TransientAttempts {
		in.noteOnce(in.transientSeen, key, func(s *Stats) { s.TransientSims++ })
		in.mu.Lock()
		in.stats.TransientFailures++
		in.mu.Unlock()
		return false, &Transient{Err: fmt.Errorf("faults: injected transient failure (sim %016x attempt %d)", key, attempt)}
	}
	// Divergence: every cell of the simulation is non-finite.
	if cfg.DivergentRate > 0 && unit(key, saltDivergent) < cfg.DivergentRate {
		in.noteOnce(in.divergentSeen, key, func(s *Stats) { s.DivergentSims++ })
		return true, nil
	}
	return false, nil
}

// nextAttempt returns the 1-based attempt number for a simulation key.
func (in *Injector) nextAttempt(key uint64) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.attempts[key]++
	in.stats.Attempts++
	return in.attempts[key]
}

// noteOnce records a per-sim statistic exactly once per key.
func (in *Injector) noteOnce(seen map[uint64]bool, key uint64, bump func(*Stats)) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !seen[key] {
		seen[key] = true
		bump(&in.stats)
	}
}

// simKey derives the deterministic 64-bit identity of one simulation from
// the injection seed and the simulation's parameter values.
func simKey(seed int64, vals []float64) uint64 {
	h := mix(uint64(seed) ^ 0x4d32544446415553) // "M2TDFAUS"
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h = mix(h ^ binary.LittleEndian.Uint64(b[:]))
	}
	return h
}

// mix is the splitmix64 finaliser: a high-quality 64-bit mixer whose
// output is a pure function of its input.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps (key, salt) to a uniform float in [0, 1), independently per
// salt — the per-fault biased coin.
func unit(key, salt uint64) float64 {
	return float64(mix(key^mix(salt))>>11) / (1 << 53)
}
