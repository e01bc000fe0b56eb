package eval

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/dynsys"
	"repro/internal/ensemble"
	"repro/internal/stats"
)

// Cell is one row of a comparison experiment before it runs: the values of
// the table's label columns and the configuration they name.
type Cell struct {
	Labels []string
	Config Config
}

// Row is a Cell evaluated: its labels and every scheme's result on it.
type Row struct {
	// Table is the Name of the experiment the row belongs to.
	Table  string
	Labels []string
	*Comparison
}

// Experiment is one scheme-comparison table: a list of labelled cells, each
// evaluated under every scheme at one simulation budget. Tables II and
// IV–VIII of Section VII, the rank, noise and seed sweeps and the extended
// baselines are all this shape; they differ in their cells and in the three
// switches below.
type Experiment struct {
	// Name is what `m2tdbench -table` and the CSV export call the table.
	Name string
	// Title heads the accuracy table; TimeTitle, where set, heads a second
	// table of decomposition times printed below it.
	Title, TimeTitle string
	// Columns are the headers of the label columns, one per Cell label.
	Columns []string
	Cells   []Cell
	// Margin adds the rank sweep's column: SELECT's accuracy minus the
	// better of AVG's and CONCAT's.
	Margin bool
	// Extended evaluates the LHS and Union baselines beside the six schemes.
	Extended bool
	// Summary prints each scheme's mean ± std over the rows (the seed
	// sweep) in place of the rows themselves.
	Summary bool
}

// Experiments is the registry of comparison experiments, in the order
// `m2tdbench -table` documents them: the paper's Tables II and IV–VIII, then
// the noise sweep, the rank sweep and the extended baselines. A zero base
// selects the default scale (DefaultConfig); a non-zero one carries the
// scale, seed and scorer of every cell. resolutions replaces Table II's
// sweep (default {12, 16, 20} for the paper's {60, 70, 80}), ranks replaces
// Table II's {2, 4, 6} (for {5, 10, 20}) and the rank sweep's {2, 4, 6, 8}.
func Experiments(base Config, resolutions, ranks []int) []Experiment {
	base = baseOrDefault(base, "double-pendulum")
	if len(resolutions) == 0 {
		resolutions = []int{12, 16, 20}
	}
	table2Ranks, sweepRanks := ranks, ranks
	if len(ranks) == 0 {
		table2Ranks, sweepRanks = []int{2, 4, 6}, []int{2, 4, 6, 8}
	}
	pct := func(frac float64) string { return fmt.Sprintf("%.0f%%", frac*100) }
	cell := func(set func(*Config), labels ...string) Cell {
		cfg := base
		set(&cfg)
		return Cell{Labels: labels, Config: cfg}
	}

	var table2, table4, table5, table6, table7, table8, noise, rankSweep []Cell
	for _, res := range resolutions {
		for _, rank := range table2Ranks {
			table2 = append(table2, cell(func(c *Config) { c.Res, c.TimeSamples, c.Rank = res, res, rank },
				strconv.Itoa(res), strconv.Itoa(rank)))
		}
	}
	for _, system := range []string{"triple-pendulum", "lorenz"} {
		table4 = append(table4, cell(func(c *Config) { c.System = system }, system))
	}
	// The paper cut the budget to 1/10; zero-join equals join at full
	// density, so only the reduced budget gets both rows.
	for _, frac := range []float64{1.0, 0.1} {
		table5 = append(table5, cell(func(c *Config) { c.FreeFrac = frac }, pct(frac), "join"))
		if frac < 1 {
			table5 = append(table5, cell(func(c *Config) { c.FreeFrac, c.ZeroJoin = frac, true }, pct(frac), "zero-join"))
		}
	}
	for _, frac := range []float64{1.0, 0.5, 0.25} {
		table6 = append(table6, cell(func(c *Config) { c.PivotFrac = frac }, pct(frac)))
		table7 = append(table7, cell(func(c *Config) { c.FreeFrac = frac }, pct(frac)))
	}
	// Paper order: t first, then the double pendulum's parameters, each
	// sub-system keeping one pendulum's free parameters together.
	modes := ensemble.NewSpace(dynsys.NewDoublePendulum(), base.Res, base.TimeSamples)
	for _, pivot := range []int{4, 0, 1, 2, 3} {
		table8 = append(table8, cell(func(c *Config) { c.Pivot = pivot }, modes.ModeName(pivot)))
	}
	// Noise is added after simulation: to the sub-ensembles for the M2TD
	// schemes, to the sampled ensemble for the conventional ones.
	for _, frac := range []float64{0, 0.05, 0.2, 0.5} {
		noise = append(noise, cell(func(c *Config) { c.NoiseFrac = frac }, pct(frac)))
	}
	for _, rank := range sweepRanks {
		rankSweep = append(rankSweep, cell(func(c *Config) { c.Rank = rank }, strconv.Itoa(rank)))
	}
	extended := []Cell{{Labels: []string{strconv.Itoa(base.Res), strconv.Itoa(base.Rank)}, Config: base}}

	return []Experiment{
		{Name: "2", Columns: []string{"Res.", "Rank"}, Cells: table2,
			Title:     "TABLE II(a): Accuracy for Double Pendulum System",
			TimeTitle: "TABLE II(b): Decomposition Time for Double Pendulum System (ms)"},
		{Name: "4", Columns: []string{"System"}, Cells: table4,
			Title:     "TABLE IV(a): Accuracy for different dynamic systems",
			TimeTitle: "TABLE IV(b): Decomposition time for different dynamic systems (ms)"},
		{Name: "5", Columns: []string{"Budget", "Stitch"}, Cells: table5,
			Title: "TABLE V: Accuracy at reduced budgets, join vs zero-join"},
		{Name: "6", Columns: []string{"P"}, Cells: table6,
			Title: "TABLE VI: Accuracy for different pivot densities (P)"},
		{Name: "7", Columns: []string{"E"}, Cells: table7,
			Title: "TABLE VII: Accuracy for different sub-ensemble densities (E)"},
		{Name: "8", Columns: []string{"Pivot"}, Cells: table8,
			Title:     "TABLE VIII(a): Accuracy for different pivots",
			TimeTitle: "TABLE VIII(b): Decomposition time for different pivots (ms)"},
		{Name: "noise", Columns: []string{"Noise"}, Cells: noise,
			Title: "NOISE SWEEP: Accuracy under multiplicative cell noise"},
		{Name: "ranks", Columns: []string{"Rank"}, Cells: rankSweep, Margin: true,
			Title: "RANK SWEEP: Accuracy by target decomposition rank"},
		{Name: "extended", Columns: []string{"Res.", "Rank"}, Cells: extended, Extended: true,
			Title: "EXTENDED BASELINES: Accuracy including LHS and Union"},
	}
}

// SeedSweep is cfg's cell once per sampling seed, summarised per scheme: the
// paper reports point estimates, the sweep says how sensitive each scheme is
// to the random sampling of its ensemble.
func SeedSweep(cfg Config, seeds []int64) Experiment {
	e := Experiment{
		Name:    "seeds",
		Title:   fmt.Sprintf("Accuracy across %d seeds (%s, res %d, rank %d)", len(seeds), cfg.System, cfg.Res, cfg.Rank),
		Columns: []string{"Seed"},
		Summary: true,
	}
	for _, seed := range seeds {
		c := cfg
		c.Seed = seed
		e.Cells = append(e.Cells, Cell{Labels: []string{strconv.FormatInt(seed, 10)}, Config: c})
	}
	return e
}

// Run evaluates every cell, in order. Cells of equal simulation identity —
// Table II's rank rows, Table V's join / zero-join pair, every row of the
// rank and noise sweeps, the default cell five tables start from — decompose
// one shared simulated partition (Config.ensemble); each row scores to the
// bit what RunComparison scores on its Config alone.
func (e Experiment) Run(ctx context.Context) ([]Row, error) {
	if len(e.Cells) == 0 {
		return nil, fmt.Errorf("eval: experiment %q has no cells", e.Name)
	}
	rows := make([]Row, 0, len(e.Cells))
	for _, c := range e.Cells {
		part, err := c.Config.ensemble(ctx)
		var cmp *Comparison
		if err == nil {
			cmp, err = c.Config.compare(ctx, part, e.Extended)
		}
		if err != nil {
			return nil, fmt.Errorf("eval: %s row %s: %w", e.Name, strings.Join(c.Labels, "/"), err)
		}
		rows = append(rows, Row{Table: e.Name, Labels: c.Labels, Comparison: cmp})
	}
	return rows, nil
}

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

// Render prints the rows in the paper's layout: the label columns, then one
// column per scheme the rows carry, accuracies first and — for a table with
// a TimeTitle — decomposition times below.
func (e Experiment) Render(w io.Writer, rows []Row) {
	if e.Summary {
		e.renderSummary(w, rows)
		return
	}
	e.renderHalf(w, e.Title, rows, func(r SchemeResult) string { return fmtAcc(r.Accuracy) }, e.Margin)
	if e.TimeTitle != "" {
		fmt.Fprintln(w)
		e.renderHalf(w, e.TimeTitle, rows, func(r SchemeResult) string { return fmtDur(r.DecompTime) }, false)
	}
}

func (e Experiment) renderHalf(w io.Writer, title string, rows []Row, cell func(SchemeResult) string, margin bool) {
	fmt.Fprintln(w, title)
	if len(rows) == 0 {
		return
	}
	header := append([]string(nil), e.Columns...)
	for _, r := range rows[0].Results {
		header = append(header, strings.TrimPrefix(string(r.Scheme), "M2TD-"))
	}
	if margin {
		header = append(header, "SELECT margin")
	}
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, strings.Join(header, "\t"))
	for _, row := range rows {
		line := append([]string(nil), row.Labels...)
		for _, r := range row.Results {
			line = append(line, cell(r))
		}
		if margin {
			sel, _ := row.Get(SchemeSELECT)
			avg, _ := row.Get(SchemeAVG)
			cc, _ := row.Get(SchemeCONCAT)
			line = append(line, fmt.Sprintf("%+.3f", sel.Accuracy-max(avg.Accuracy, cc.Accuracy)))
		}
		fmt.Fprintln(tw, strings.Join(line, "\t"))
	}
	tw.Flush()
}

// summarize aggregates each scheme's accuracy over the rows, in the rows'
// scheme order.
func summarize(rows []Row) ([]Scheme, map[Scheme]stats.Summary) {
	var schemes []Scheme
	acc := make(map[Scheme][]float64)
	for _, row := range rows {
		for _, r := range row.Results {
			if _, seen := acc[r.Scheme]; !seen {
				schemes = append(schemes, r.Scheme)
			}
			acc[r.Scheme] = append(acc[r.Scheme], r.Accuracy)
		}
	}
	out := make(map[Scheme]stats.Summary, len(acc))
	for scheme, xs := range acc {
		out[scheme] = stats.Summarize(xs)
	}
	return schemes, out
}

func (e Experiment) renderSummary(w io.Writer, rows []Row) {
	fmt.Fprintln(w, e.Title)
	schemes, sums := summarize(rows)
	tw := tabwriter.NewWriter(w, 6, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Scheme\tMean\tStd\tMin\tMax")
	for _, s := range schemes {
		sum := sums[s]
		fmt.Fprintf(tw, "%s\t%s\t%.2g\t%s\t%s\n", s, fmtAcc(sum.Mean), sum.Std, fmtAcc(sum.Min), fmtAcc(sum.Max))
	}
	tw.Flush()
}

// ExportCSV writes rows — of one table or of several — as flat CSV under
// one header: one line per scheme per row, led by the table's name and the
// row's labels (joined by "/"), then the row's full Config and the scheme's
// result.
func ExportCSV(w io.Writer, rows []Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"table", "row", "system", "res", "time_samples", "rank", "pivot",
		"pivot_frac", "free_frac", "zero_join", "noise_frac", "estimate_sims", "seed",
		"scheme", "accuracy", "decomp_ms", "num_sims", "ensemble_nnz",
	}); err != nil {
		return err
	}
	float := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, row := range rows {
		c := row.Config
		for _, r := range row.Results {
			if err := cw.Write([]string{
				row.Table, strings.Join(row.Labels, "/"),
				c.System, strconv.Itoa(c.Res), strconv.Itoa(c.TimeSamples), strconv.Itoa(c.Rank), strconv.Itoa(c.Pivot),
				float(c.PivotFrac), float(c.FreeFrac), strconv.FormatBool(c.ZeroJoin), float(c.NoiseFrac),
				strconv.Itoa(c.EstimateSims), strconv.FormatInt(c.Seed, 10),
				string(r.Scheme), float(r.Accuracy), float(float64(r.DecompTime.Microseconds()) / 1000),
				strconv.Itoa(r.NumSims), strconv.Itoa(r.EnsembleNNZ),
			}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
