package tensor

// Parity and regression tests for the strip-reduced Gram kernels: the
// optimised kernels must match the executable strip specification
// (reference.go) bit for bit at every worker count and fan-out cap, the
// strip grid must be a pure function of the input, and steady-state
// allocations must not grow with the worker count (the BENCH_2.json
// regression this PR fixes).

import (
	"math"
	"slices"
	"strconv"
	"testing"

	"repro/internal/parallel"
)

// stripTestWorkers mirrors the bit-stability sweep the CI faults job runs
// under -race.
var stripTestWorkers = []int{1, 2, 3, 8}

// largeStripSparse crosses stripMinCells, so its Grams reduce over
// multiple strips, and is stored in random order, so it has no run mode
// and the strip specification applies.
func largeStripSparse(t *testing.T) *Sparse {
	t.Helper()
	s := seededSparse(Shape{14, 12, 10, 8}, 9000, 21)
	fr := findRuns(s, &gramScratch{})
	if fr.tau >= 0 {
		t.Fatalf("test tensor has run mode %d; the strip spec covers tensors without one", fr.tau)
	}
	if _, _, strips := groupRuns(s, &fr, 0, &gramScratch{}); len(strips) < 3 {
		t.Fatalf("test tensor reduces over %d strips; need >= 2 to exercise the tree", len(strips)-1)
	}
	return s
}

// gramStrips is the reduction grid ModeGramWorkers takes for mode n of s.
func gramStrips(s *Sparse, n int) []int {
	fr := findRuns(s, &gramScratch{})
	_, _, strips := groupRuns(s, &fr, n, &gramScratch{})
	return strips
}

func TestTreeReductionGramMatchesStripSpec(t *testing.T) {
	s := largeStripSparse(t)
	for n := 0; n < s.Order(); n++ {
		want := modeGramStripRef(s, n)
		for _, w := range stripTestWorkers {
			if !matEqualBits(want, ModeGramWorkers(s, n, w)) {
				t.Fatalf("ModeGram mode %d workers=%d differs from strip spec", n, w)
			}
		}
	}
}

func TestTreeReductionGramDenseMatchesStripSpec(t *testing.T) {
	// Mode 0 has 1536 fibers (multi-strip); later modes stay single-strip
	// and verify the serial fallback against the same spec.
	d := seededSparse(Shape{8, 48, 32}, 5000, 22).ToDense()
	for n := 0; n < 3; n++ {
		want := modeGramDenseStripRef(d, n)
		for _, w := range stripTestWorkers {
			if !matEqualBits(want, ModeGramDenseWorkers(d, n, w)) {
				t.Fatalf("ModeGramDense mode %d workers=%d differs from strip spec", n, w)
			}
		}
	}
}

func TestTreeReductionBitStableUnderHighFanout(t *testing.T) {
	// Raise the fan-out cap above GOMAXPROCS so real goroutines interleave
	// even on small CI machines — under -race this is the order-dependence
	// probe the fixed sweep misses.
	prev := parallel.SetFanoutCap(8)
	defer parallel.SetFanoutCap(prev)
	s := largeStripSparse(t)
	d := seededSparse(Shape{8, 48, 32}, 5000, 23).ToDense()
	wantG := ModeGramWorkers(s, 0, 1)
	wantD := ModeGramDenseWorkers(d, 0, 1)
	for _, w := range stripTestWorkers[1:] {
		t.Run("w="+strconv.Itoa(w), func(t *testing.T) {
			if !matEqualBits(wantG, ModeGramWorkers(s, 0, w)) {
				t.Fatalf("ModeGram workers=%d differs under fanout cap 8", w)
			}
			if !matEqualBits(wantD, ModeGramDenseWorkers(d, 0, w)) {
				t.Fatalf("ModeGramDense workers=%d differs under fanout cap 8", w)
			}
		})
	}
}

func TestTreeReductionGramToleranceVsSerialReference(t *testing.T) {
	// Multi-strip results reassociate the accumulation, so they may differ
	// from the undivided serial order — but only at rounding level.
	s := largeStripSparse(t)
	for n := 0; n < s.Order(); n++ {
		got := ModeGramWorkers(s, n, 8)
		ref := modeGramWorkersRef(s, n, 1)
		for i, v := range got.Data {
			r := ref.Data[i]
			scale := math.Abs(r)
			if scale < 1 {
				scale = 1
			}
			if math.Abs(v-r)/scale > 1e-12 {
				t.Fatalf("mode %d cell %d: strip-reduced %v vs serial %v", n, i, v, r)
			}
		}
	}
}

func TestGramStripGridIsPureFunctionOfInput(t *testing.T) {
	a := seededSparse(Shape{12, 10, 8}, 7000, 24)
	b := seededSparse(Shape{12, 10, 8}, 7000, 24)
	for _, x := range []*Sparse{a, fibreLaid(Shape{30, 12, 10}, 0, allConfigs(12, 10), 24)} {
		for n := 0; n < 3; n++ {
			fr := findRuns(x, &gramScratch{})
			_, bounds, sa := groupRuns(x, &fr, n, &gramScratch{})
			// Equal storage gives the same grid, whatever ran before.
			if x == a {
				if sb := gramStrips(b, n); !slices.Equal(sa, sb) {
					t.Fatalf("mode %d: strip grids differ: %v vs %v", n, sa, sb)
				}
			}
			// Grid boundaries must cover the group space in ascending order.
			groups := len(bounds) - 1
			if sa[0] != 0 || sa[len(sa)-1] != groups {
				t.Fatalf("mode %d: strips %v do not cover %d groups", n, sa, groups)
			}
			for i := 1; i < len(sa); i++ {
				if sa[i] <= sa[i-1] {
					t.Fatalf("mode %d: strips %v contain an empty strip", n, sa)
				}
			}
		}
	}
	// Small tensors take a single strip (undivided serial path).
	small := seededSparse(Shape{7, 5, 4}, 60, 25)
	if got := len(gramStrips(small, 0)) - 1; got != 1 {
		t.Fatalf("small tensor reduces over %d strips, want 1", got)
	}
}

func TestGramStripCountFollowsEntryCount(t *testing.T) {
	// nnz / stripMinCells strips: 2 (the smallest multi-strip grid) and 4,
	// each bit-stable across worker counts.
	for _, nnz := range []int{5000, 9000} {
		s := seededSparse(Shape{14, 12, 10, 8}, nnz, 26)
		if got := len(gramStrips(s, 0)) - 1; got != nnz/stripMinCells {
			t.Fatalf("nnz=%d: %d strips, want %d", nnz, got, nnz/stripMinCells)
		}
		want := ModeGramWorkers(s, 0, 1)
		for _, w := range stripTestWorkers[1:] {
			if !matEqualBits(want, ModeGramWorkers(s, 0, w)) {
				t.Fatalf("nnz=%d: workers=%d differs", nnz, w)
			}
		}
	}
}

func TestModeGramDenseAllocsFlatAcrossWorkers(t *testing.T) {
	// BENCH_2.json: allocs/op grew 7 → 46 from workers 1 → 8 because every
	// worker allocated its own fiber buffer. Scratch is pooled now. The
	// fan-out cap is pinned to 1 so the measurement isolates ALGORITHMIC
	// allocations from goroutine-spawn bookkeeping (which varies by
	// machine): any remaining worker-count dependence would be exactly the
	// per-worker scratch this test guards against.
	prev := parallel.SetFanoutCap(1)
	defer parallel.SetFanoutCap(prev)
	d := seededSparse(Shape{12, 12, 12, 12}, 12000, 27).ToDense()
	measure := func(w int) float64 {
		return testing.AllocsPerRun(20, func() { ModeGramDenseWorkers(d, 0, w) })
	}
	a1, a8 := measure(1), measure(8)
	if a8 > a1+2 {
		t.Fatalf("allocs/op grew from %.0f (w=1) to %.0f (w=8); pooled scratch must not scale with workers", a1, a8)
	}
	if a1 > 16 {
		t.Fatalf("workers=1 allocates %.0f per op; expected pooled steady state <= 16", a1)
	}
}

func TestGramPartialPoolReuse(t *testing.T) {
	// Steady-state Grams must not allocate new partials: after a warm-up
	// call, allocations are bounded by the output matrix, the grouping and
	// fan-out bookkeeping, independent of the strip count — with or without
	// a run mode.
	for _, s := range []*Sparse{largeStripSparse(t), fibreLaid(Shape{40, 16, 12}, 0, allConfigs(16, 12), 28)} {
		ModeGramWorkers(s, 0, 2) // warm the pool
		got := testing.AllocsPerRun(20, func() { ModeGramWorkers(s, 0, 2) })
		if got > 16 {
			t.Fatalf("steady-state ModeGram allocates %.0f per op, want <= 16", got)
		}
	}
}
