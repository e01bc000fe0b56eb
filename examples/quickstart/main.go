// Quickstart: run the full M2TD pipeline on the double pendulum and
// compare its reconstruction accuracy against a conventionally sampled
// ensemble with the same simulation budget — the paper's headline
// comparison in miniature.
package main

import (
	"context"
	"fmt"
	"log"

	m2td "repro"
)

func main() {
	cfg := m2td.Config{
		System:     "double-pendulum",
		Resolution: 10, // grid values per simulation parameter
		Rank:       3,  // uniform Tucker target rank
		Method:     "select",
	}

	report, err := m2td.RunCtx(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("M2TD-SELECT: accuracy %.4f with %d simulations (%d join cells, decomposition %v)\n",
		report.Accuracy, report.NumSims, report.JoinCells, report.DecompTime.Round(1e6))

	baseline, err := m2td.BaselineCtx(context.Background(), cfg, "random", report.NumSims)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Random:      accuracy %.2e with %d simulations\n",
		baseline.Accuracy, baseline.NumSims)

	fmt.Printf("\nPartition-stitch sampling is %.0fx more accurate at the same budget.\n",
		report.Accuracy/baseline.Accuracy)
}
