package parallel

import "testing"

// SetGrainCalibration pins AutoGrain's calibration to the given
// spawn/join and per-FLOP costs (in nanoseconds), making grain choices —
// a scheduling property only; results never depend on grain — fully
// reproducible. Non-positive values restore the measured calibration.
// It returns the previously pinned values (0, 0 if none).
func SetGrainCalibration(spawnNs, flopNs float64) (prevSpawnNs, prevFlopNs float64) {
	var next *grainCal
	if spawnNs > 0 && flopNs > 0 {
		next = &grainCal{spawnNs: spawnNs, flopNs: flopNs}
	}
	prev := calOverride.Swap(next)
	if prev == nil {
		return 0, 0
	}
	return prev.spawnNs, prev.flopNs
}

func TestAutoGrainPinnedCalibration(t *testing.T) {
	prevS, prevF := SetGrainCalibration(1600, 1)
	defer SetGrainCalibration(prevS, prevF)

	// grain = amortize * spawnNs / (flops * flopNs) = 16*1600/flops.
	for _, tc := range []struct {
		flops float64
		want  int
	}{
		{1, 25600},
		{100, 256},
		{25600, 1},
		{1e12, 1},   // clamp low
		{0, 25600},  // flops<1 treated as 1
		{-5, 25600}, // negative likewise
	} {
		if got := AutoGrain(tc.flops); got != tc.want {
			t.Fatalf("AutoGrain(%v) = %d, want %d", tc.flops, got, tc.want)
		}
	}
}

func TestAutoGrainPinnedIsReproducible(t *testing.T) {
	prevS, prevF := SetGrainCalibration(1000, 0.5)
	defer SetGrainCalibration(prevS, prevF)
	first := AutoGrain(32)
	for i := 0; i < 100; i++ {
		if got := AutoGrain(32); got != first {
			t.Fatalf("pinned AutoGrain drifted: %d then %d", first, got)
		}
	}
}

func TestAutoGrainUpperClamp(t *testing.T) {
	prevS, prevF := SetGrainCalibration(1e12, 1)
	defer SetGrainCalibration(prevS, prevF)
	if got := AutoGrain(1); got != 1<<20 {
		t.Fatalf("AutoGrain = %d, want upper clamp %d", got, 1<<20)
	}
}

func TestAutoGrainMeasuredIsSane(t *testing.T) {
	// Clear any override: the measured calibration must land in the
	// clamped range and produce positive grains.
	prevS, prevF := SetGrainCalibration(0, 0)
	defer SetGrainCalibration(prevS, prevF)
	cal := calMeasured()
	if cal.spawnNs < 100 || cal.spawnNs > 100_000 {
		t.Fatalf("spawnNs %v outside clamp", cal.spawnNs)
	}
	if cal.flopNs < 0.05 || cal.flopNs > 100 {
		t.Fatalf("flopNs %v outside clamp", cal.flopNs)
	}
	if g := AutoGrain(8); g < 1 || g > 1<<20 {
		t.Fatalf("measured AutoGrain(8) = %d outside [1, 2^20]", g)
	}
	// Cheaper per-item work must never get a smaller grain.
	if AutoGrain(1) < AutoGrain(1000) {
		t.Fatalf("grain not monotone in per-item cost: %d < %d", AutoGrain(1), AutoGrain(1000))
	}
}
