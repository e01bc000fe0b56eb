// Package stats provides the summary statistics used to aggregate
// experiment results across random seeds: mean, sample standard deviation,
// extremes and median.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample of observations.
type Summary struct {
	N      int
	Mean   float64
	Std    float64 // sample standard deviation (n−1 denominator)
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes summary statistics. It panics on an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: empty sample")
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s
}

// Mean returns the arithmetic mean. It panics on an empty sample.
func Mean(xs []float64) float64 { return Summarize(xs).Mean }

// String renders "mean ± std (n=N)".
func (s Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d)", s.Mean, s.Std, s.N)
}
