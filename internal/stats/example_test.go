package stats_test

import (
	"fmt"

	"repro/internal/stats"
)

func ExampleSummarize() {
	s := stats.Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	fmt.Printf("mean=%.0f median=%.1f min=%.0f max=%.0f\n", s.Mean, s.Median, s.Min, s.Max)
	// Output: mean=5 median=4.5 min=2 max=9
}
