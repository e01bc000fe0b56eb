package parallel

import (
	"math"
	"testing"
)

// TestAutoGrainPinnedCalibration pins the calibration to its constant:
// AutoGrain is minChunkFlops / flopsPerItem, at least 1, with
// flopsPerItem < 1 (and NaN) read as 1 — the same grain in every process,
// on every machine.
func TestAutoGrainPinnedCalibration(t *testing.T) {
	for _, tc := range []struct {
		flops float64
		want  int
	}{
		{1, 16384},
		{3, 5461},
		{100, 163},
		{16384, 1},
		{16385, 1},
		{1e12, 1},
		{math.Inf(1), 1},
		{0, 16384},
		{-5, 16384},
		{0.5, 16384},
		{math.NaN(), 16384},
	} {
		if got := AutoGrain(tc.flops); got != tc.want {
			t.Fatalf("AutoGrain(%v) = %d, want %d", tc.flops, got, tc.want)
		}
	}
}
