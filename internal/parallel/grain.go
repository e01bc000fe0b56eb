package parallel

import "math"

// minChunkFlops is the least work, in multiply-adds, an AutoGrain'd chunk
// carries: enough that one goroutine's spawn and join (≈ 2 µs) costs a
// few percent of the chunk. A constant, not a measurement, so every
// process schedules a loop the same way (DESIGN.md §11).
const minChunkFlops = 1 << 14

// AutoGrain returns the minimum items-per-worker grain for a loop that
// spends roughly flopsPerItem multiply-adds per item: minChunkFlops /
// flopsPerItem, at least 1. Pass it as ForGrain's grain for write-disjoint
// loops. flopsPerItem < 1 is treated as 1.
//
// SCOPE: grain only caps fan-out — chunk boundaries decide which goroutine
// computes an index, never how — so it must NOT size a reduction strip
// grid; UniformStripBounds/BalancedStripBounds callers pass their own
// package constants (see strips.go).
func AutoGrain(flopsPerItem float64) int {
	if flopsPerItem < 1 || math.IsNaN(flopsPerItem) {
		flopsPerItem = 1
	}
	return max(int(minChunkFlops/flopsPerItem), 1)
}
