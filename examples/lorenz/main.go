// Lorenz system: sweep the pivot parameter across all five tensor modes
// (z0, sigma, beta, rho, t) — the Table VIII experiment on a chaotic
// system. The punchline matches the paper: pivot choice shifts accuracy
// modestly, but every pivot beats conventional sampling by orders of
// magnitude, so precise a-priori knowledge of the system is not needed.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	m2td "repro"
	"repro/internal/eval"
)

func main() {
	fmt.Println("Lorenz system: pivot sweep (resolution 10, rank 3)")
	fmt.Println()

	space, err := eval.SpaceFor("lorenz", 10, 10)
	if err != nil {
		log.Fatal(err)
	}

	cfg := m2td.Config{
		System:     "lorenz",
		Resolution: 10,
		Rank:       3,
		Method:     "select",
	}

	tw := tabwriter.NewWriter(os.Stdout, 6, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Pivot\tAccuracy\tSims\tJoinCells")
	var budget int
	for mode := 0; mode < space.Order(); mode++ {
		c := cfg
		c.Pivot = space.ModeName(mode)
		report, err := m2td.RunCtx(context.Background(), c)
		if err != nil {
			log.Fatal(err)
		}
		budget = report.NumSims
		fmt.Fprintf(tw, "%s\t%.4f\t%d\t%d\n", c.Pivot, report.Accuracy, report.NumSims, report.JoinCells)
	}
	tw.Flush()

	baseline, err := m2td.BaselineCtx(context.Background(), cfg, "random", budget)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nRandom sampling at the same budget: accuracy %.2e\n", baseline.Accuracy)
}
