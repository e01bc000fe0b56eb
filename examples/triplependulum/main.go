// Triple pendulum with friction: the low-budget regime of Table V. When
// the sub-ensemble density E drops, plain join stitching leaves the join
// tensor thin; zero-join stitching boosts the effective density and
// recovers accuracy.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	m2td "repro"
)

func main() {
	fmt.Println("Triple pendulum (phi1, phi2, phi3, f): budget sweep, join vs zero-join")
	fmt.Println()

	tw := tabwriter.NewWriter(os.Stdout, 6, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Budget(E)\tStitch\tAccuracy\tSims\tJoinCells")
	for _, density := range []float64{1.0, 0.5, 0.2} {
		for _, zeroJoin := range []bool{false, true} {
			if density == 1.0 && zeroJoin {
				continue // identical to plain join at full density
			}
			cfg := m2td.Config{
				System:             "triple-pendulum",
				Resolution:         8,
				Rank:               3,
				Method:             "select",
				SubEnsembleDensity: density,
				ZeroJoin:           zeroJoin,
			}
			report, err := m2td.RunCtx(context.Background(), cfg)
			if err != nil {
				log.Fatal(err)
			}
			stitchName := "join"
			if zeroJoin {
				stitchName = "zero-join"
			}
			fmt.Fprintf(tw, "%.0f%%\t%s\t%.4f\t%d\t%d\n",
				density*100, stitchName, report.Accuracy, report.NumSims, report.JoinCells)
		}
	}
	tw.Flush()

	fmt.Println("\nLower budgets reduce accuracy for every scheme; zero-join recovers")
	fmt.Println("effective density when sub-ensembles are sparse (the paper's Table V).")
}
