// Double pendulum, the paper's running example (Figure 2): evaluate all
// six ensemble-construction schemes — the three M2TD variants against
// Random, Grid, and Slice sampling — at an equal simulation budget, and
// print a Table II-style accuracy/time comparison across target ranks.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"repro/internal/eval"
)

func main() {
	fmt.Println("Double pendulum: 5-mode ensemble (phi1, phi2, m1, m2, t), pivot = t")
	fmt.Println()

	tw := tabwriter.NewWriter(os.Stdout, 6, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Rank\tScheme\tAccuracy\tDecomp\tSims\tCells")
	for _, rank := range []int{2, 4, 6} {
		cfg := eval.Config{
			System:      "double-pendulum",
			Res:         12,
			TimeSamples: 12,
			Rank:        rank,
			Pivot:       4, // time mode
			PivotFrac:   1,
			FreeFrac:    1,
			Seed:        1,
		}
		cmp, err := eval.RunComparison(context.Background(), cfg)
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range cmp.Results {
			fmt.Fprintf(tw, "%d\t%s\t%.4g\t%v\t%d\t%d\n",
				rank, r.Scheme, r.Accuracy, r.DecompTime.Round(1e6), r.NumSims, r.EnsembleNNZ)
		}
		fmt.Fprintln(tw, "\t\t\t\t\t")
	}
	tw.Flush()

	fmt.Println("Note the paper's Table II shape: every M2TD variant beats every")
	fmt.Println("conventional scheme by orders of magnitude, and SELECT's advantage")
	fmt.Println("grows with the target rank.")
}
