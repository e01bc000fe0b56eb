package parallel

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Grain autotuning. ForGrain callers historically hard-coded grains
// (64, 128, 256, 1024, 2048, 4096 …) tuned on one machine; AutoGrain
// derives them from a one-time calibration of goroutine spawn/join
// overhead against straight-line FLOP throughput, so the fan-out
// decision tracks the hardware it actually runs on.
//
// SCOPE: AutoGrain is timing-derived, so it may only steer SCHEDULING —
// the fan-out cap of write-disjoint ForGrain loops, where chunk
// boundaries affect which goroutine computes an index but never how.
// It must NOT size a reduction strip grid (those grids feed
// floating-point merge trees and must be pure functions of the input —
// see strips.go); UniformStripBounds/BalancedStripBounds callers pass
// package constants instead.
//
// The determinism analyzer bans time.Now in kernel packages precisely
// to keep timing away from results; the calibration sites below carry
// lint:allow suppressions with that scheduling-only justification; the
// package's tests call the pure half, grainCal.grain, with a calibration
// of their own.

// grainCal is a calibration: nanoseconds to spawn+join one goroutine and
// nanoseconds per floating-point multiply-add of straight-line work.
type grainCal struct{ spawnNs, flopNs float64 }

// calMeasured runs the one-time measurement. sync.OnceValue amortises it
// to a single ~100µs cost for the life of the process.
var calMeasured = sync.OnceValue(measureCal)

// autoGrainAmortize is how many times the per-worker work must outweigh
// the spawn/join overhead: each chunk of an AutoGrain'd loop costs at
// least 16 spawns' worth of FLOPs, bounding parallelisation overhead at
// ~6% in the worst case.
const autoGrainAmortize = 16

// AutoGrain returns the minimum items-per-worker grain for a loop that
// spends roughly flopsPerItem multiply-adds per item, sized so each
// worker's chunk amortises goroutine spawn/join overhead. Pass it as
// ForGrain's grain for write-disjoint loops. The result is clamped to
// [1, 1<<20]. flopsPerItem < 1 is treated as 1.
//
// Grain only caps fan-out; it never moves a reduction boundary, so two
// processes with different calibrations still produce bit-identical
// results.
func AutoGrain(flopsPerItem float64) int { return calMeasured().grain(flopsPerItem) }

// grain is AutoGrain under this calibration: a pure function of its inputs.
func (cal grainCal) grain(flopsPerItem float64) int {
	if flopsPerItem < 1 || math.IsNaN(flopsPerItem) {
		flopsPerItem = 1
	}
	g := autoGrainAmortize * cal.spawnNs / (flopsPerItem * cal.flopNs)
	switch {
	case g < 1 || math.IsNaN(g):
		return 1
	case g > 1<<20:
		return 1 << 20
	}
	return int(g)
}

// measureCal times goroutine spawn/join and straight-line multiply-add
// throughput. Both measurements are tiny (~64 spawns, ~64k FLOPs) and
// deliberately coarse — grain only needs the right order of magnitude.
func measureCal() grainCal {
	const spawnRounds = 64
	var wg sync.WaitGroup
	//lint:allow determinism -- grain calibration is scheduling-only: it sizes fan-out caps for write-disjoint loops and can never move a reduction boundary or change results
	spawnStart := time.Now()
	for i := 0; i < spawnRounds; i++ {
		wg.Add(1)
		go wg.Done()
	}
	wg.Wait()
	//lint:allow determinism -- grain calibration is scheduling-only: it sizes fan-out caps for write-disjoint loops and can never move a reduction boundary or change results
	spawnNs := float64(time.Since(spawnStart).Nanoseconds()) / spawnRounds

	const flopRounds = 1 << 16
	acc, x := 0.0, 1.0000001
	//lint:allow determinism -- grain calibration is scheduling-only: it sizes fan-out caps for write-disjoint loops and can never move a reduction boundary or change results
	flopStart := time.Now()
	for i := 0; i < flopRounds; i++ {
		acc = acc*x + x
	}
	//lint:allow determinism -- grain calibration is scheduling-only: it sizes fan-out caps for write-disjoint loops and can never move a reduction boundary or change results
	flopNs := float64(time.Since(flopStart).Nanoseconds()) / flopRounds
	calSink.Store(math.Float64bits(acc)) // defeat dead-code elimination

	// Clamp away scheduler hiccups (a preempted measurement can be wildly
	// off); the defaults correspond to a typical ~1 GHz-class core.
	return grainCal{
		spawnNs: clampF(spawnNs, 100, 100_000),
		flopNs:  clampF(flopNs, 0.05, 100),
	}
}

var calSink atomic.Uint64

func clampF(v, lo, hi float64) float64 {
	if !(v > lo) { // also catches NaN
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
