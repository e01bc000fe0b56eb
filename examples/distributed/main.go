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

	"repro/internal/eval"
)

func main() {
	base := eval.DefaultConfig("double-pendulum")
	base.Res = 12
	base.TimeSamples = 12

	rows, err := eval.Table3(context.Background(), base, []int{1, 2, 4, 8, 16})
	if err != nil {
		log.Fatal(err)
	}
	eval.RenderTable3(os.Stdout, rows)

	fmt.Println("\nThe server count is the shard count of every phase: the result is a")
	fmt.Println("pure function of it, and more servers help with diminishing returns.")
	fmt.Println("The join-free total is what a campaign pays: nothing is stitched.")
}
