package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSummarizeKnown(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 {
		t.Fatalf("N = %d", s.N)
	}
	if math.Abs(s.Mean-5) > 1e-12 {
		t.Fatalf("Mean = %v, want 5", s.Mean)
	}
	// Sample std with n−1: sqrt(32/7).
	if math.Abs(s.Std-math.Sqrt(32.0/7)) > 1e-12 {
		t.Fatalf("Std = %v", s.Std)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("Min/Max = %v/%v", s.Min, s.Max)
	}
	if s.Median != 4.5 {
		t.Fatalf("Median = %v, want 4.5", s.Median)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{3})
	if s.Mean != 3 || s.Std != 0 || s.Median != 3 {
		t.Fatalf("single-sample summary = %+v", s)
	}
}

func TestSummarizeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty Summarize did not panic")
		}
	}()
	Summarize(nil)
}

func TestMedianOdd(t *testing.T) {
	if m := Summarize([]float64{9, 1, 5}).Median; m != 5 {
		t.Fatalf("odd median = %v", m)
	}
}

func TestMean(t *testing.T) {
	xs := []float64{1, 2, 3}
	if Mean(xs) != 2 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
}

func TestStringFormat(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

// Property: the mean lies within [min, max].
func TestSummaryInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		s := Summarize(xs)
		return s.Mean >= s.Min-1e-9 && s.Mean <= s.Max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(160))}); err != nil {
		t.Error(err)
	}
}

// Property: Summarize is invariant under permutation.
func TestPermutationInvarianceQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		a := Summarize(xs)
		shuffled := append([]float64(nil), xs...)
		rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		b := Summarize(shuffled)
		return math.Abs(a.Mean-b.Mean) < 1e-12 && math.Abs(a.Std-b.Std) < 1e-12 && a.Median == b.Median
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(161))}); err != nil {
		t.Error(err)
	}
}
