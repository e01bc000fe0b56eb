// Distributed M2TD (D-M2TD): run the 3-phase decomposition at increasing
// server (shard) counts on the in-process pool and print the Table
// III-style phase-time split. Adding servers shows diminishing returns —
// the shape the paper measured on its 18-node Hadoop cluster; unlike
// there, writing the join (Phase 2) costs more than projecting it
// (Phase 3): shards are block operations, not per-record shuffles.
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
	fmt.Println("D-M2TD phase times by server count (double pendulum, res 12, rank 4)")
	fmt.Println()

	base := eval.DefaultConfig("double-pendulum")
	base.Res = 12
	base.TimeSamples = 12

	rows, err := eval.Table3(context.Background(), base, []int{1, 2, 4, 8, 16})
	if err != nil {
		log.Fatal(err)
	}

	tw := tabwriter.NewWriter(os.Stdout, 8, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Servers\tPhase1(sub-decomp)\tPhase2(stitch)\tPhase3(core)\tTotal")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%v\t%v\t%v\t%v\n",
			r.Workers,
			r.Phase1.Round(1e6), r.Phase2.Round(1e6), r.Phase3.Round(1e6), r.Total().Round(1e6))
	}
	tw.Flush()

	fmt.Println("\nThe server count is the shard count of Phases 2 and 3: the result is a")
	fmt.Println("pure function of it, and more servers help with diminishing returns.")
}
