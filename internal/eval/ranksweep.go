package eval

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
)

// RankRow is one target-rank row of the rank sweep.
type RankRow struct {
	Rank       int
	Comparison *Comparison
}

// RankSweep measures accuracy for every scheme across target
// decomposition ranks — the quantitative version of the paper's claim
// that M2TD-SELECT's advantage over -AVG/-CONCAT "gets higher as we
// target higher ranking decompositions" (Section VI-C and Table II's rank
// rows). Default ranks are {2, 4, 6, 8}.
func RankSweep(ctx context.Context, base Config, ranks []int) ([]RankRow, error) {
	if len(ranks) == 0 {
		ranks = []int{2, 4, 6, 8}
	}
	cfg := base
	if cfg.Res == 0 {
		cfg = DefaultConfig("double-pendulum")
	}
	space, part, err := cfg.ensemble(ctx)
	if err != nil {
		return nil, fmt.Errorf("rank sweep: %w", err)
	}
	var rows []RankRow
	for _, r := range ranks {
		c := cfg
		c.Rank = r
		cmp, err := runComparisonOn(ctx, c, space, part)
		if err != nil {
			return nil, fmt.Errorf("rank sweep r=%d: %w", r, err)
		}
		rows = append(rows, RankRow{Rank: r, Comparison: cmp})
	}
	return rows, nil
}

// RenderRankSweep prints the rank sweep with a SELECT-margin column
// (SELECT accuracy minus the best of AVG/CONCAT).
func RenderRankSweep(w io.Writer, rows []RankRow) {
	fmt.Fprintln(w, "RANK SWEEP: Accuracy by target decomposition rank")
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Rank\t%s\tSELECT margin\n", schemeHeader)
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t", r.Rank)
		writeSchemeCells(tw, r.Comparison, func(sr SchemeResult) string { return fmtAcc(sr.Accuracy) })
		sel, _ := r.Comparison.Get(SchemeSELECT)
		avg, _ := r.Comparison.Get(SchemeAVG)
		cc, _ := r.Comparison.Get(SchemeCONCAT)
		best := avg.Accuracy
		if cc.Accuracy > best {
			best = cc.Accuracy
		}
		fmt.Fprintf(tw, "\t%+.3f\n", sel.Accuracy-best)
	}
	tw.Flush()
}
