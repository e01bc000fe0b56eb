// Streaming ensemble growth: simulation budgets are often allocated
// incrementally (the "single-run replication" strategy from the
// simulation-design literature the paper discusses) — run a few
// simulations, look at the analysis, decide whether to fund more. This
// example starts from a 25%-density PF-partitioned ensemble and grows it
// in stages; the incremental tracker maintains the factor Gram matrices
// exactly under each appended cell, so each refresh pays only for core
// recovery. The fully grown tracker matches a from-scratch batch run.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"text/tabwriter"

	"repro/examples/streaming/increment"
	"repro/internal/core"
	"repro/internal/dynsys"
	"repro/internal/ensemble"
	"repro/internal/eval"
	"repro/internal/partition"
	"repro/internal/tucker"
)

type cell struct {
	idx []int
	val float64
}

// missingCells lists the cells of full that seed lacks, in storage order.
func missingCells(seed, full *partition.SubEnsemble) []cell {
	have := map[int]bool{}
	seed.Tensor.Each(func(idx []int, v float64) {
		have[seed.Tensor.Shape.LinearIndex(idx)] = true
	})
	var out []cell
	full.Tensor.Each(func(idx []int, v float64) {
		if !have[full.Tensor.Shape.LinearIndex(idx)] {
			out = append(out, cell{idx: append([]int(nil), idx...), val: v})
		}
	})
	return out
}

func main() {
	space := ensemble.NewSpace(dynsys.NewDoublePendulum(), 10, 10)
	pcfg := partition.DefaultConfig(space.Order(), space.TimeMode(), eval.PairsFor("double-pendulum"))
	pcfg.FreeFrac = 0.25
	ctx := context.Background()
	seed, err := partition.GenerateCtx(ctx, space, pcfg, rand.New(rand.NewSource(1)), partition.SimOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fullCfg := pcfg
	fullCfg.FreeFrac = 1
	full, err := partition.GenerateCtx(ctx, space, fullCfg, rand.New(rand.NewSource(1)), partition.SimOptions{})
	if err != nil {
		log.Fatal(err)
	}

	tracker := increment.New(seed)
	missing1 := missingCells(seed.Sub1, full.Sub1)
	missing2 := missingCells(seed.Sub2, full.Sub2)

	ranks := tucker.UniformRanks(space.Order(), 3)
	truth := space.GroundTruth()

	fmt.Println("Growing a PF-partitioned double-pendulum ensemble in stages:")
	fmt.Println()
	tw := tabwriter.NewWriter(os.Stdout, 8, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Grown\tCells(sub1+sub2)\tAccuracy")
	pos1, pos2 := 0, 0
	for _, stage := range []float64{0, 0.33, 0.66, 1.0} {
		for ; pos1 < int(stage*float64(len(missing1))); pos1++ {
			if err := tracker.AppendCell(1, missing1[pos1].idx, missing1[pos1].val); err != nil {
				log.Fatal(err)
			}
		}
		for ; pos2 < int(stage*float64(len(missing2))); pos2++ {
			if err := tracker.AppendCell(2, missing2[pos2].idx, missing2[pos2].val); err != nil {
				log.Fatal(err)
			}
		}
		res, err := tracker.Decompose(core.Options{Method: core.SELECT, Ranks: ranks})
		if err != nil {
			log.Fatal(err)
		}
		c1, c2 := tracker.CellCounts()
		fmt.Fprintf(tw, "%.0f%%\t%d+%d\t%.4f\n",
			stage*100, c1, c2, eval.Accuracy(res.Reconstruct(), truth))
	}
	tw.Flush()

	// Confirm the grown tracker matches a from-scratch batch decomposition.
	batch, err := core.DecomposeFactored(full, core.Options{Method: core.SELECT, Ranks: ranks})
	if err != nil {
		log.Fatal(err)
	}
	grown, err := tracker.Decompose(core.Options{Method: core.SELECT, Ranks: ranks})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nGrown tracker matches batch decomposition: %v\n",
		grown.Core.Equal(batch.Core, 1e-8))
}
