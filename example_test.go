package m2td_test

import (
	"context"
	"fmt"

	m2td "repro"
)

// ExampleRunCtx demonstrates the one-call pipeline: PF-partition the
// double-pendulum parameter space, simulate both sub-ensembles, decompose
// with M2TD-SELECT (join-free: "join cells" is the size the stitched join
// would have), and evaluate against the full simulation space. Accuracies
// are floating-point and platform-sensitive, so this example prints
// structural facts only.
func ExampleRunCtx() {
	report, err := m2td.RunCtx(context.Background(), m2td.Config{
		System:      "double-pendulum",
		Resolution:  5,
		TimeSamples: 4,
		Rank:        2,
		Method:      "select",
		Seed:        7,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("simulations:", report.NumSims)
	fmt.Println("join cells:", report.JoinCells)
	fmt.Println("factor matrices:", len(report.Decomposition.Factors))
	fmt.Println("accuracy in (0,1):", report.Accuracy > 0 && report.Accuracy < 1)
	// Output:
	// simulations: 50
	// join cells: 2500
	// factor matrices: 5
	// accuracy in (0,1): true
}

// ExampleBaselineCtx compares a conventional sampling scheme at the same
// budget — the paper's equal-budget comparison in two calls.
func ExampleBaselineCtx() {
	cfg := m2td.Config{
		System:      "double-pendulum",
		Resolution:  5,
		TimeSamples: 4,
		Rank:        2,
		Seed:        7,
	}
	report, err := m2td.RunCtx(context.Background(), cfg)
	if err != nil {
		panic(err)
	}
	baseline, err := m2td.BaselineCtx(context.Background(), cfg, "random", report.NumSims)
	if err != nil {
		panic(err)
	}
	fmt.Println("equal budgets:", baseline.NumSims == report.NumSims)
	fmt.Println("M2TD wins:", report.Accuracy > baseline.Accuracy)
	// Output:
	// equal budgets: true
	// M2TD wins: true
}
