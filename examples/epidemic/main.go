// Epidemic ensemble analysis: the paper's introduction motivates the whole
// framework with simulation-based epidemic decision making (STEM-style
// models, intervention assessment under limited simulation budgets). This
// example builds an SEIR ensemble — transmission, incubation, recovery
// rates and initial infections as tensor modes — runs partition-stitch
// sampling with M2TD-SELECT, and asks the decomposition which parameters
// drive the deviation from the observed outbreak.
package main

import (
	"context"
	"fmt"
	"log"

	m2td "repro"
)

func main() {
	cfg := m2td.Config{
		System:     "seir",
		Resolution: 10,
		Rank:       3,
		Method:     "select",
	}
	report, err := m2td.RunCtx(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SEIR ensemble: accuracy %.4f with %d simulations (join %d cells)\n",
		report.Accuracy, report.NumSims, report.JoinCells)

	baseline, err := m2td.BaselineCtx(context.Background(), cfg, "random", report.NumSims)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Random sampling at the same budget: accuracy %.2e\n\n", baseline.Accuracy)

	// Rank parameters by how much representation energy their mode carries:
	// the modes whose entities vary most across the leading patterns are
	// the levers an intervention should target.
	space := report.Space
	fmt.Println("Per-parameter pattern energy (spread of entity energies):")
	for mode := 0; mode < space.NumParams(); mode++ {
		energies, err := report.Decomposition.EntityEnergy(mode)
		if err != nil {
			log.Fatal(err)
		}
		min, max := energies[0], energies[0]
		for _, e := range energies {
			if e < min {
				min = e
			}
			if e > max {
				max = e
			}
		}
		fmt.Printf("  %-6s spread %.3f (min %.3f, max %.3f)\n", space.ModeName(mode), max-min, min, max)
	}
	fmt.Println("\nLarger spreads mark parameters whose value changes the outbreak")
	fmt.Println("trajectory most — the intervention levers the paper's motivating")
	fmt.Println("scenario needs to identify.")
}
