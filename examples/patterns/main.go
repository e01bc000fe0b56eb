// Pattern analysis: the paper's motivating use case is interpreting a
// simulation ensemble — discovering which parameter settings dominate the
// system's behaviour. This example decomposes a double-pendulum ensemble
// with M2TD-SELECT and reads the patterns off the factor matrices: the
// top-loading grid values per mode and the per-component strengths from
// the core tensor.
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
	report, err := m2td.RunCtx(context.Background(), m2td.Config{
		System:     "double-pendulum",
		Resolution: 10,
		Rank:       3,
		Method:     "select",
	})
	if err != nil {
		log.Fatal(err)
	}
	space := report.Space
	dec := report.Decomposition

	fmt.Printf("Ensemble decomposed: accuracy %.4f, %d simulations\n\n", report.Accuracy, report.NumSims)

	fmt.Println("Top-loading grid values per mode (leading component):")
	tw := tabwriter.NewWriter(os.Stdout, 6, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Mode\tTop grid indices (by |loading|)")
	for mode := 0; mode < space.Order(); mode++ {
		loadings, err := dec.ModeLoadings(mode, 0)
		if err != nil {
			log.Fatal(err)
		}
		top := loadings
		if len(top) > 4 {
			top = top[:4]
		}
		row := ""
		for _, l := range top {
			row += fmt.Sprintf("%d (%.2f)  ", l.Index, l.Weight)
		}
		fmt.Fprintf(tw, "%s\t%s\n", space.ModeName(mode), row)
	}
	tw.Flush()

	fmt.Println("\nComponent strengths along the time mode (core energies):")
	strengths, err := dec.ComponentStrengths(space.TimeMode())
	if err != nil {
		log.Fatal(err)
	}
	for c, s := range strengths {
		fmt.Printf("  component %d: %.4g\n", c, s)
	}
	fmt.Println("\nThe leading component concentrates most of the core energy; its")
	fmt.Println("top-loading parameter values identify the regime that dominates the")
	fmt.Println("ensemble's deviation from the observed system.")
}
