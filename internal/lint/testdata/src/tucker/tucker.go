// Package tucker is the hash-only determinism golden package: its
// directory name opts into both the bit-stable kernel suffix rule
// (util.go's deterministicPkgs) and the stricter hash-only tier
// (hashOnlyPkgs), so the determinism analyzer treats it exactly like
// repro/internal/tucker. Deliberate violations below never reach
// `go build ./...` — wildcards skip testdata — but the package compiles,
// so linttest can load and type-check it through the real pipeline.
//
// The seeded-tier cases (explicit *rand.Rand allowed, global source
// banned per call) live in the sibling "ensemble" golden package.
package tucker

import (
	"math/rand" // want `\[determinism\] import of math/rand in a hash-only kernel package`
	"time"

	_ "math/rand/v2" //lint:allow determinism -- golden suppression case: justified import directives silence the hash-only ban

	"repro/internal/obs"
)

// positive cases: map iteration, wall-clock reads, and the math/rand
// import itself are all banned in hash-only kernel packages.

func sumMap(m map[int]float64) float64 {
	var s float64
	for _, v := range m { // want `\[determinism\] range over a map`
		s += v
	}
	return s
}

func stamp() time.Time {
	return time.Now() // want `\[determinism\] time\.Now reads the wall clock`
}

func elapsed(t0 time.Time) time.Duration {
	return time.Since(t0) // want `\[determinism\] time\.Since reads the wall clock`
}

func selfTimed() time.Duration {
	clock := obs.StartStopwatch() // want `\[determinism\] obs\.StartStopwatch reads the wall clock in a hash-only kernel package`
	return clock.Elapsed()
}

// rand uses produce no per-call diagnostics in the hash-only tier — the
// import diagnostic above covers every one of them, so these lines must
// stay silent for the want bijection to hold.

func jitter() float64 {
	return rand.Float64()
}

func seeded() float64 {
	rng := rand.New(rand.NewSource(7))
	return rng.Float64()
}

// negative cases: slice iteration, time arithmetic that never reads
// the clock, and opening a span for the caller to time are fine.

func sumSlice(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += v
	}
	return s
}

func double(d time.Duration) time.Duration {
	return 2 * d
}

func phase(span *obs.Span) {
	span.Start("phase").Finish()
}

// suppression: a justified //lint:allow directive silences the
// diagnostic on its line.

func annotated() int64 {
	return time.Now().UnixNano() //lint:allow determinism -- golden suppression case: wall time feeds a gauge in the real tree
}

// directive hygiene: a directive missing its "-- reason", or naming an
// analyzer that does not exist, is itself a diagnostic — these cannot be
// suppressed (validateDirectives bypasses the allow index).

/* want `\[m2tdlint\] lint:allow directive is missing its justification` */ //lint:allow determinism

/* want `\[m2tdlint\] lint:allow directive names unknown analyzer nosuchcheck` */ //lint:allow nosuchcheck -- hygiene golden case
