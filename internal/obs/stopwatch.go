package obs

import "time"

// Stopwatch is a started wall-clock reading. Wall time is gauge-class
// observability: it feeds histograms, Result timing fields and span
// gauges, and no kernel reads it back. The bit-stable kernel packages,
// where the determinism analyzer (internal/lint) bans time.Now so that no
// scheduling-dependent value can reach a result, take their readings
// through here instead of calling the clock themselves.
type Stopwatch struct{ start time.Time }

// StartStopwatch reads the clock.
func StartStopwatch() Stopwatch { return Stopwatch{time.Now()} }

// Elapsed is the wall time since the stopwatch started.
func (s Stopwatch) Elapsed() time.Duration { return time.Since(s.start) }
