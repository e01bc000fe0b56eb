// Package ensemble is the seeded-tier determinism golden package: its
// directory name opts into the bit-stable kernel suffix rule (util.go's
// deterministicPkgs) but NOT the hash-only tier, so it checks the
// original contract — the global math/rand source is banned per call,
// while explicit seeded *rand.Rand generators (and their constructors)
// remain legitimate. repro/internal/ensemble and internal/mat live under
// exactly these rules.
package ensemble

import (
	"math/rand"
	"time"

	"repro/internal/obs"
)

// positive case: the global source couples results to process-wide state.

func jitter() float64 {
	return rand.Float64() // want `\[determinism\] rand\.Float64 uses the global random source`
}

// negative cases: deterministic construction of an explicit generator and
// draws through it are the sanctioned seeded-tier pattern.

func seeded() float64 {
	rng := rand.New(rand.NewSource(7))
	return rng.Float64()
}

func sample(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

// negative case: the seeded tier may time its own work through the obs
// helper (the real ensemble's per-simulation histogram does).

func timed(run func()) time.Duration {
	clock := obs.StartStopwatch()
	run()
	return clock.Elapsed()
}
