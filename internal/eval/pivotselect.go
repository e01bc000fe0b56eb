package eval

import (
	"context"
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/tucker"
)

// PivotScore is one candidate pivot's pilot-run outcome.
type PivotScore struct {
	Pivot     int
	PivotName string
	// Accuracy is the estimated accuracy of a coarse pilot pipeline using
	// this pivot.
	Accuracy float64
	// NumSims is the pilot's simulation cost.
	NumSims int
}

// SelectPivot ranks the candidate pivot modes by running a coarse pilot
// pipeline (low resolution, shared estimation fibers) for each and
// returns the scores sorted best-first.
//
// Table VIII shows pivot choice shifts M2TD's accuracy modestly but
// matters; the paper leaves the choice to the user. This heuristic
// operationalises it: a pilot at a fraction of the real resolution costs
// a few hundred simulations and transfers, because the relative pivot
// ordering is driven by which parameter interactions the PF-partition
// separates — a property of the system, not the resolution.
func SelectPivot(ctx context.Context, system string, pilotRes, rank int, sampleSims int, seed int64) ([]PivotScore, error) {
	if pilotRes < 2 {
		return nil, fmt.Errorf("eval: pilot resolution %d too small", pilotRes)
	}
	space, err := SpaceFor(system, pilotRes, pilotRes)
	if err != nil {
		return nil, err
	}
	// One fibre sample for every candidate (the pilots' own: the scorer's
	// seed offset plus 100, the sample these rankings have always used).
	score, err := Scorer(ctx, space, sampleSims, seed+100)
	if err != nil {
		return nil, err
	}
	ranks := tucker.UniformRanks(space.Order(), rank)

	var scores []PivotScore
	for pivot := 0; pivot < space.Order(); pivot++ {
		part, err := Config{System: system, Pivot: pivot, PivotFrac: 1, FreeFrac: 1, Seed: seed}.generate(ctx, space)
		if err != nil {
			return nil, fmt.Errorf("eval: pivot %d pilot: %w", pivot, err)
		}
		res, err := core.DecomposeFactored(part, core.Options{Method: core.SELECT, Ranks: ranks})
		if err != nil {
			return nil, fmt.Errorf("eval: pivot %d pilot: %w", pivot, err)
		}
		acc, err := score(TuckerModel{Core: res.Core, Factors: res.Factors})
		if err != nil {
			return nil, fmt.Errorf("eval: pivot %d pilot: %w", pivot, err)
		}
		scores = append(scores, PivotScore{
			Pivot:     pivot,
			PivotName: space.ModeName(pivot),
			Accuracy:  acc,
			NumSims:   part.NumSims,
		})
	}
	sort.SliceStable(scores, func(a, b int) bool { return scores[a].Accuracy > scores[b].Accuracy })
	return scores, nil
}

// RenderPivotScores prints the pilot ranking.
func RenderPivotScores(w io.Writer, system string, scores []PivotScore) {
	fmt.Fprintf(w, "PIVOT SELECTION: pilot ranking for %s\n", system)
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Rank\tPivot\tPilot accuracy\tPilot sims")
	for i, s := range scores {
		fmt.Fprintf(tw, "%d\t%s\t%s\t%d\n", i+1, s.PivotName, fmtAcc(s.Accuracy), s.NumSims)
	}
	tw.Flush()
}
