package eval

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"
)

// fmtAcc formats an accuracy the way the paper's tables do: fixed-point
// for values that round to ≥ 0.01, scientific notation for the tiny
// accuracies of the conventional schemes.
func fmtAcc(a float64) string {
	if a >= 0.005 || a <= -0.005 {
		return fmt.Sprintf("%.2f", a)
	}
	return fmt.Sprintf("%.0E", a)
}

// fmtDur renders a duration in milliseconds (the paper reports seconds;
// at our scaled resolutions decompositions run in milliseconds).
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000)
}

// schemeHeader is the shared six-column header.
const schemeHeader = "AVG\tCONCAT\tSELECT\tRandom\tGrid\tSlice"

// writeSchemeCells writes the six scheme columns of one comparison using
// the provided cell formatter.
func writeSchemeCells(w io.Writer, cmp *Comparison, cell func(SchemeResult) string) {
	for i, s := range AllSchemes() {
		r, ok := cmp.Get(s)
		if i > 0 {
			fmt.Fprint(w, "\t")
		}
		if !ok {
			fmt.Fprint(w, "-")
			continue
		}
		fmt.Fprint(w, cell(r))
	}
}

// RenderTable2 prints the Table II analogue: accuracy and decomposition
// time per (resolution, rank) for the double pendulum.
func RenderTable2(w io.Writer, cmps []*Comparison) {
	fmt.Fprintln(w, "TABLE II(a): Accuracy for Double Pendulum System")
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Res.\tRank\t%s\n", schemeHeader)
	for _, cmp := range cmps {
		fmt.Fprintf(tw, "%d\t%d\t", cmp.Config.Res, cmp.Config.Rank)
		writeSchemeCells(tw, cmp, func(r SchemeResult) string { return fmtAcc(r.Accuracy) })
		fmt.Fprintln(tw)
	}
	tw.Flush()

	fmt.Fprintln(w)
	fmt.Fprintln(w, "TABLE II(b): Decomposition Time for Double Pendulum System (ms)")
	tw = tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Res.\tRank\t%s\n", schemeHeader)
	for _, cmp := range cmps {
		fmt.Fprintf(tw, "%d\t%d\t", cmp.Config.Res, cmp.Config.Rank)
		writeSchemeCells(tw, cmp, func(r SchemeResult) string { return fmtDur(r.DecompTime) })
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// RenderTable3 prints the Table III analogue: D-M2TD phase times per
// worker count on the materialised route, and the join-free total beside
// them.
func RenderTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintln(w, "TABLE III: D-M2TD phase time split by server count (ms; phases as the paper runs them, J stitched and projected)")
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Servers\tPhase1\tPhase2\tPhase3\tTotal\tJoin-free total")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%s\t%s\n",
			r.Workers, fmtDur(r.Phase1), fmtDur(r.Phase2), fmtDur(r.Phase3), fmtDur(r.Total()), fmtDur(r.JoinFree))
	}
	tw.Flush()
}

// RenderTable4 prints the Table IV analogue: per-system accuracy and
// decomposition time.
func RenderTable4(w io.Writer, cmps []*Comparison) {
	fmt.Fprintln(w, "TABLE IV(a): Accuracy for different dynamic systems")
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "System\t%s\n", schemeHeader)
	for _, cmp := range cmps {
		fmt.Fprintf(tw, "%s\t", cmp.Config.System)
		writeSchemeCells(tw, cmp, func(r SchemeResult) string { return fmtAcc(r.Accuracy) })
		fmt.Fprintln(tw)
	}
	tw.Flush()

	fmt.Fprintln(w)
	fmt.Fprintln(w, "TABLE IV(b): Decomposition time for different dynamic systems (ms)")
	tw = tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "System\t%s\n", schemeHeader)
	for _, cmp := range cmps {
		fmt.Fprintf(tw, "%s\t", cmp.Config.System)
		writeSchemeCells(tw, cmp, func(r SchemeResult) string { return fmtDur(r.DecompTime) })
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// RenderTable5 prints the Table V analogue: reduced budgets with join vs
// zero-join stitching.
func RenderTable5(w io.Writer, rows []Table5Row) {
	fmt.Fprintln(w, "TABLE V: Accuracy at reduced budgets, join vs zero-join")
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Budget\tStitch\t%s\n", schemeHeader)
	for _, r := range rows {
		stitchName := "join"
		if r.ZeroJoin {
			stitchName = "zero-join"
		}
		fmt.Fprintf(tw, "%.0f%%\t%s\t", r.BudgetFrac*100, stitchName)
		writeSchemeCells(tw, r.Comparison, func(sr SchemeResult) string { return fmtAcc(sr.Accuracy) })
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// renderFracTable prints a Tables VI/VII-style density sweep.
func renderFracTable(w io.Writer, title, label string, rows []FracRow) {
	fmt.Fprintln(w, title)
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s\t%s\n", label, schemeHeader)
	for _, r := range rows {
		fmt.Fprintf(tw, "%.0f%%\t", r.Frac*100)
		writeSchemeCells(tw, r.Comparison, func(sr SchemeResult) string { return fmtAcc(sr.Accuracy) })
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// RenderTable6 prints the Table VI analogue: the pivot-density (P) sweep.
func RenderTable6(w io.Writer, rows []FracRow) {
	renderFracTable(w, "TABLE VI: Accuracy for different pivot densities (P)", "P", rows)
}

// RenderTable7 prints the Table VII analogue: the sub-ensemble-density (E)
// sweep.
func RenderTable7(w io.Writer, rows []FracRow) {
	renderFracTable(w, "TABLE VII: Accuracy for different sub-ensemble densities (E)", "E", rows)
}

// RenderTable8 prints the Table VIII analogue: the pivot-parameter sweep.
func RenderTable8(w io.Writer, rows []PivotRow) {
	fmt.Fprintln(w, "TABLE VIII(a): Accuracy for different pivots")
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Pivot\t%s\n", schemeHeader)
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t", r.PivotName)
		writeSchemeCells(tw, r.Comparison, func(sr SchemeResult) string { return fmtAcc(sr.Accuracy) })
		fmt.Fprintln(tw)
	}
	tw.Flush()

	fmt.Fprintln(w)
	fmt.Fprintln(w, "TABLE VIII(b): Decomposition time for different pivots (ms)")
	tw = tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Pivot\t%s\n", schemeHeader)
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t", r.PivotName)
		writeSchemeCells(tw, r.Comparison, func(sr SchemeResult) string { return fmtDur(sr.DecompTime) })
		fmt.Fprintln(tw)
	}
	tw.Flush()
}
