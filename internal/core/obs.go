package core

import "time"

// Wall-clock observability for the stage timings surfaced on Result
// (SubTime/StitchTime/CoreTime) and mirrored into Report timing fields.
//
// core is a bit-stable kernel package: the determinism analyzer
// (internal/lint) bans wall-clock reads here because scheduling-dependent
// values must never influence decomposition results. Stage timings are
// gauge-class observability — they are reported, never read back — so
// the two clock reads are confined to this helper and annotated. Code in
// this package and in internal/dist (which fills the same Result fields)
// must not call time.Now/time.Since directly; use Stopwatch.

// Stopwatch starts a wall-clock timer and returns a function yielding
// the elapsed time. The readings feed Result timing fields and span
// gauges only; no kernel consumes them.
func Stopwatch() func() time.Duration {
	start := time.Now() //lint:allow determinism -- wall-clock stage timings feed Result/Report gauges only; no kernel result depends on them
	return func() time.Duration {
		return time.Since(start) //lint:allow determinism -- paired with Stopwatch's start; gauge-class stage timing
	}
}
