package obs

import "time"

// Stopwatch is a started wall-clock reading. Wall time is gauge-class
// observability: it feeds histograms and span gauges, and nothing reads it
// back into a result. It is for the packages that time their own work
// (ensemble's per-simulation histogram); a kernel in the hash-only tier
// never times itself — its caller reads the span the kernel opens, or the
// clock around the call — and the determinism analyzer (internal/lint)
// reports a Stopwatch there as it does time.Now.
type Stopwatch struct{ start time.Time }

// StartStopwatch reads the clock.
func StartStopwatch() Stopwatch { return Stopwatch{time.Now()} }

// Elapsed is the wall time since the stopwatch started.
func (s Stopwatch) Elapsed() time.Duration { return time.Since(s.start) }
