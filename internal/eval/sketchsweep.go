package eval

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"text/tabwriter"
	"time"

	"repro/internal/stitch"
	"repro/internal/tucker"
)

// SketchRow is one KeepFrac arm of the sketch accuracy-vs-speedup sweep.
type SketchRow struct {
	// KeepFrac is the expected fraction of cells the sketch retains
	// (1 = exact, no sketching).
	KeepFrac float64
	// Kept and InputNNZ are the sketch's retained and source cell counts
	// (Kept == InputNNZ on the exact arm).
	Kept, InputNNZ int
	// Accuracy is the sketched decomposition's, by the cell's scorer (the
	// exact metric, or its estimate under EstimateSims); DeltaVsExact is the
	// exact arm's accuracy minus this one (the price of the sketch).
	Accuracy     float64
	DeltaVsExact float64
	// DecompTime is the wall-clock of the sketch-plus-decomposition;
	// Speedup is the exact arm's DecompTime over this one.
	DecompTime time.Duration
	Speedup    float64
}

// SketchSweep is the table of the generic sketching tool (m2td.TuckerCtx
// with a Sketch, `tensorstore decompose -sketch`): SketchedHOSVD against
// HOSVD on one large sparse tensor, accuracy vs speedup. It is not a
// campaign — no campaign sketches, or builds J. The tensor is a stitched
// join only because that is the large sparse tensor with a ground truth at
// hand: the PF-partitioned ensembles are generated and JE-stitched once,
// then the join is decomposed by SketchedHOSVD at each KeepFrac and scored
// by the cell's scorer. Every kernel compiles the mode plans it needs per
// call, so the exact arm pays plan compilation on the full nnz, which is
// the cost the sketch arms avoid by compiling on the KeepFrac-sized
// sketch. Default fractions are {1, 0.5, 0.25, 0.1, 0.05, 0.02}; an exact
// baseline is added when 1 is absent.
func SketchSweep(ctx context.Context, base Config, fracs []float64) ([]SketchRow, error) {
	if len(fracs) == 0 {
		fracs = []float64{1, 0.5, 0.25, 0.1, 0.05, 0.02}
	}
	cfg := baseOrDefault(base, "double-pendulum")
	part, err := cfg.ensemble(ctx)
	if err != nil {
		return nil, err
	}
	score, err := Scorer(ctx, part.Space, cfg.EstimateSims, cfg.Seed)
	if err != nil {
		return nil, err
	}
	ranks := tucker.UniformRanks(part.Space.Order(), cfg.Rank)
	join := stitch.Join(part)

	record := func(frac float64) (SketchRow, error) {
		start := time.Now()
		dec, stats, err := tucker.SketchedHOSVD(join, ranks, tucker.SketchOptions{
			KeepFrac: frac,
			Seed:     cfg.Seed,
		})
		elapsed := time.Since(start)
		if err != nil {
			return SketchRow{}, fmt.Errorf("sketch sweep keep=%g: %w", frac, err)
		}
		acc, err := score(TuckerModel{Core: dec.Core, Factors: dec.Factors})
		return SketchRow{
			KeepFrac:   frac,
			Kept:       stats.Kept,
			InputNNZ:   stats.InputNNZ,
			Accuracy:   acc,
			DecompTime: elapsed,
		}, err
	}

	// Untimed exact warmup so the first timed arm is not charged for cold
	// caches.
	if _, err := record(1); err != nil {
		return nil, err
	}

	rows := make([]SketchRow, 0, len(fracs))
	exact := SketchRow{}
	haveExact := false
	for _, frac := range fracs {
		row, err := record(frac)
		if err != nil {
			return nil, err
		}
		if frac == 1 && !haveExact {
			exact, haveExact = row, true
		}
		rows = append(rows, row)
	}
	if !haveExact {
		row, err := record(1)
		if err != nil {
			return nil, err
		}
		exact = row
	}
	for i := range rows {
		rows[i].DeltaVsExact = exact.Accuracy - rows[i].Accuracy
		if rows[i].DecompTime > 0 {
			rows[i].Speedup = float64(exact.DecompTime) / float64(rows[i].DecompTime)
		}
	}
	return rows, nil
}

// RenderSketchSweep prints the accuracy-vs-speedup report.
func RenderSketchSweep(w io.Writer, rows []SketchRow) {
	fmt.Fprintln(w, "SKETCH SWEEP: SketchedHOSVD vs HOSVD on one large sparse tensor (the TuckerCtx{Sketch} tool, not a campaign)")
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Keep\tJoin cells\tAccuracy\tvs exact\tDecomp\tSpeedup")
	for _, r := range rows {
		fmt.Fprintf(tw, "%.0f%%\t%d/%d\t%s\t%+.3f\t%v\t%.2fx\n",
			r.KeepFrac*100, r.Kept, r.InputNNZ, fmtAcc(r.Accuracy),
			-r.DeltaVsExact, r.DecompTime.Round(time.Millisecond), r.Speedup)
	}
	tw.Flush()
}

// ExportSketchSweepCSV writes sketch-sweep rows as flat CSV for external
// plotting tools.
func ExportSketchSweepCSV(w io.Writer, rows []SketchRow) error {
	cw := csv.NewWriter(w)
	header := []string{
		"keep_frac", "kept", "input_nnz", "accuracy",
		"acc_delta_vs_exact", "decomp_ms", "speedup",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range rows {
		row := []string{
			strconv.FormatFloat(r.KeepFrac, 'g', -1, 64),
			strconv.Itoa(r.Kept),
			strconv.Itoa(r.InputNNZ),
			strconv.FormatFloat(r.Accuracy, 'g', -1, 64),
			strconv.FormatFloat(r.DeltaVsExact, 'g', -1, 64),
			strconv.FormatFloat(float64(r.DecompTime.Microseconds())/1000, 'g', -1, 64),
			strconv.FormatFloat(r.Speedup, 'g', -1, 64),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
