package parallel

import "testing"

func TestAutoGrainPinnedCalibration(t *testing.T) {
	cal := grainCal{spawnNs: 1600, flopNs: 1}

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
		if got := cal.grain(tc.flops); got != tc.want {
			t.Fatalf("grain(%v) = %d, want %d", tc.flops, got, tc.want)
		}
	}
}

func TestAutoGrainPinnedIsReproducible(t *testing.T) {
	cal := grainCal{spawnNs: 1000, flopNs: 0.5}
	first := cal.grain(32)
	for i := 0; i < 100; i++ {
		if got := cal.grain(32); got != first {
			t.Fatalf("pinned AutoGrain drifted: %d then %d", first, got)
		}
	}
}

func TestAutoGrainUpperClamp(t *testing.T) {
	if got := (grainCal{spawnNs: 1e12, flopNs: 1}).grain(1); got != 1<<20 {
		t.Fatalf("grain = %d, want upper clamp %d", got, 1<<20)
	}
}

func TestAutoGrainMeasuredIsSane(t *testing.T) {
	// The measured calibration must land in the clamped range and produce
	// positive grains.
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
