package parallel

import (
	"math"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
)

// logisticVals returns n floats with well-spread magnitudes whose sum is
// association-order sensitive.
func logisticVals(n int) []float64 {
	vals := make([]float64, n)
	x := 0.5
	for i := range vals {
		x = 3.9 * x * (1 - x)
		vals[i] = x - 0.5
	}
	return vals
}

// stripSum folds vals over the given strip grid with a float-slice
// accumulator of length 1.
func stripSum(vals []float64, bounds []int, workers int) float64 {
	out := ReduceStrips(bounds, workers,
		func(int) *float64 { p := new(float64); return p },
		func(p *float64, _, start, end int) {
			for i := start; i < end; i++ {
				*p += vals[i]
			}
		},
		func(into, from *float64) *float64 { *into += *from; return into },
		nil,
	)
	return *out
}

func TestReduceStripsBitStableAcrossWorkerCounts(t *testing.T) {
	const n = 100_000
	vals := logisticVals(n)
	bounds := UniformStripBounds(n, 1024, 32)
	if len(bounds) != 33 {
		t.Fatalf("expected 32 strips, got %d", len(bounds)-1)
	}
	want := stripSum(vals, bounds, 1)
	for _, w := range []int{1, 2, 3, 8, 37} {
		got := stripSum(vals, bounds, w)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("workers=%d: %x, want %x", w, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

func TestReduceStripsBitStableAcrossFanoutCaps(t *testing.T) {
	const n = 50_000
	vals := logisticVals(n)
	bounds := UniformStripBounds(n, 512, 32)
	want := stripSum(vals, bounds, 8)
	for _, cap := range []int{1, 2, 8} {
		prev := SetFanoutCap(cap)
		got := stripSum(vals, bounds, 8)
		SetFanoutCap(prev)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("fanout cap %d changed the result: %x vs %x",
				cap, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

func TestReduceStripsSingleStripIsSerialLoop(t *testing.T) {
	const n = 10_000
	vals := logisticVals(n)
	serial := 0.0
	for _, v := range vals {
		serial += v
	}
	got := stripSum(vals, []int{0, n}, 8)
	if math.Float64bits(got) != math.Float64bits(serial) {
		t.Fatalf("S=1 must be the undivided serial fold: %x vs %x",
			math.Float64bits(got), math.Float64bits(serial))
	}
}

func TestReduceStripsRecyclesEveryConsumedPartial(t *testing.T) {
	for _, s := range []int{2, 3, 5, 8, 17, 32} {
		bounds := UniformStripBounds(s*10, 10, s)
		// makePartial and recycle run on the strip workers, concurrently.
		var made, recycled atomic.Int64
		out := ReduceStrips(bounds, 4,
			func(int) *int { made.Add(1); return new(int) },
			func(p *int, _, start, end int) { *p += end - start },
			func(into, from *int) *int { *into += *from; return into },
			func(*int) { recycled.Add(1) },
		)
		if *out != s*10 {
			t.Fatalf("s=%d: sum %d, want %d", s, *out, s*10)
		}
		if made.Load() != int64(s) || recycled.Load() != int64(s-1) {
			t.Fatalf("s=%d: made %d recycled %d, want %d and %d", s, made.Load(), recycled.Load(), s, s-1)
		}
	}
}

func TestReduceStripsPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("strip body panic not propagated")
		}
	}()
	ReduceStrips(UniformStripBounds(100, 10, 8), 4,
		func(int) *int { return new(int) },
		func(_ *int, strip, _, _ int) {
			if strip == 3 {
				panic("strip-boom")
			}
		},
		func(into, _ *int) *int { return into },
		nil,
	)
}

func TestUniformStripBounds(t *testing.T) {
	for _, tc := range []struct {
		n, grain, maxStrips, wantStrips int
	}{
		{0, 10, 8, 1},
		{5, 10, 8, 1},   // under one grain → single strip
		{100, 10, 8, 8}, // capped by maxStrips
		{100, 10, 32, 10},
		{100, 1, 4, 4},
		{7, 0, 32, 7}, // grain<1 treated as 1
	} {
		b := UniformStripBounds(tc.n, tc.grain, tc.maxStrips)
		if len(b)-1 != tc.wantStrips {
			t.Fatalf("UniformStripBounds(%d,%d,%d): %d strips, want %d",
				tc.n, tc.grain, tc.maxStrips, len(b)-1, tc.wantStrips)
		}
		if b[0] != 0 || b[len(b)-1] != tc.n {
			t.Fatalf("bounds %v do not cover [0,%d)", b, tc.n)
		}
		for i := 1; i < len(b); i++ {
			if b[i] < b[i-1] {
				t.Fatalf("bounds %v not ascending", b)
			}
		}
	}
}

func TestBalancedStripBounds(t *testing.T) {
	// Skewed weights: one dominant group must not produce empty strips.
	weights := []int{1, 1, 1000, 1, 1, 1, 1, 1}
	b := BalancedStripBounds(weights, 100, 4)
	if b[0] != 0 || b[len(b)-1] != len(weights) {
		t.Fatalf("bounds %v do not cover the group space", b)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds %v contain an empty strip", b)
		}
	}
	if len(b)-1 != 4 {
		t.Fatalf("want 4 strips for total=1007 grain=100 max=4, got %d", len(b)-1)
	}

	// Uniform weights split evenly.
	uni := make([]int, 64)
	for i := range uni {
		uni[i] = 10
	}
	b = BalancedStripBounds(uni, 80, 32)
	if len(b)-1 != 8 {
		t.Fatalf("uniform: want 8 strips, got %d (%v)", len(b)-1, b)
	}
	for i := 1; i < len(b); i++ {
		if got := b[i] - b[i-1]; got != 8 {
			t.Fatalf("uniform: strip %d has %d groups, want 8 (%v)", i-1, got, b)
		}
	}

	// Small totals collapse to one strip; empty input yields an empty grid.
	if b := BalancedStripBounds([]int{3, 4}, 100, 8); len(b) != 2 || b[0] != 0 || b[1] != 2 {
		t.Fatalf("small total: got %v, want [0 2]", b)
	}
	if b := BalancedStripBounds(nil, 10, 8); len(b) != 2 || b[1] != 0 {
		t.Fatalf("empty weights: got %v, want [0 0]", b)
	}

	// More strips than groups is clamped to one group per strip.
	b = BalancedStripBounds([]int{100, 100, 100}, 1, 32)
	if len(b)-1 != 3 {
		t.Fatalf("want 3 strips for 3 groups, got %d (%v)", len(b)-1, b)
	}
}

func TestBalancedStripBoundsIsWeightBalanced(t *testing.T) {
	// Geometric-ish weights: every strip should carry a comparable share.
	weights := make([]int, 200)
	w := 1
	for i := range weights {
		weights[i] = w
		w = w*17%97 + 1
	}
	total := 0
	for _, x := range weights {
		total += x
	}
	b := BalancedStripBounds(weights, total/16, 16)
	s := len(b) - 1
	for k := 0; k < s; k++ {
		sum := 0
		for g := b[k]; g < b[k+1]; g++ {
			sum += weights[g]
		}
		// No strip may exceed ~2 proportional shares plus one group (the
		// group granularity bound).
		if sum > 2*total/s+97 {
			t.Fatalf("strip %d carries %d of %d total across %d strips (%v)", k, sum, total, s, b)
		}
	}
}

func TestSetFanoutCapStillCoversAllIndices(t *testing.T) {
	prev := SetFanoutCap(1)
	defer SetFanoutCap(prev)
	hits := make([]int, 1000)
	For(len(hits), 8, func(start, end int) {
		for i := start; i < end; i++ {
			hits[i]++
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times under cap=1", i, h)
		}
	}
}

func TestFanoutCapDefaultsToGOMAXPROCS(t *testing.T) {
	prev := SetFanoutCap(0)
	defer SetFanoutCap(prev)
	if got, want := FanoutCap(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("FanoutCap() = %d, want GOMAXPROCS = %d", got, want)
	}
	if old := SetFanoutCap(7); old != 0 {
		t.Fatalf("previous cap override = %d, want 0", old)
	}
	if got := FanoutCap(); got != 7 {
		t.Fatalf("FanoutCap() = %d after SetFanoutCap(7)", got)
	}
	if old := SetFanoutCap(-3); old != 7 {
		t.Fatalf("SetFanoutCap returned %d, want 7", old)
	}
	if got, want := FanoutCap(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("negative cap must restore default: got %d, want %d", got, want)
	}
}

func TestSplitWorkers(t *testing.T) {
	for _, tc := range []struct{ workers, tasks, want int }{
		{8, 4, 2},
		{8, 3, 3}, // ceil(8/3)
		{8, 16, 1},
		{1, 4, 1},
		{4, 0, 4},
		{5, 2, 3},
	} {
		if got := SplitWorkers(tc.workers, tc.tasks); got != tc.want {
			t.Fatalf("SplitWorkers(%d,%d) = %d, want %d", tc.workers, tc.tasks, got, tc.want)
		}
	}
}

func BenchmarkReduceStrips(b *testing.B) {
	const n = 1 << 18
	vals := logisticVals(n)
	bounds := UniformStripBounds(n, 4096, 32)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run("workers="+strconv.Itoa(w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = stripSum(vals, bounds, w)
			}
		})
	}
}
