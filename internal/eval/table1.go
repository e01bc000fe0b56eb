package eval

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"
)

// Table1Row summarises one configuration of the experiment space — the
// reproduction's analogue of the paper's Table I (key system parameters
// and their value ranges), extended with the measured storage footprint of
// the sampled ensembles.
type Table1Row struct {
	System      string
	Res         int
	TimeSamples int
	// FullSpaceCells is the size of the complete simulation-space tensor.
	FullSpaceCells int
	// Budget is the partition-stitch simulation budget at P = E = 100%.
	Budget int
	// EnsembleCells is the number of stored cells across both
	// sub-ensembles; Density is EnsembleCells over FullSpaceCells.
	EnsembleCells int
	Density       float64
	// StorageBytes approximates the COO storage of the sub-ensembles
	// (order+1 machine words per cell).
	StorageBytes int
}

// Table1 builds the configuration summary for the given systems and
// resolutions (defaults: all three paper systems at the scaled default).
func Table1(ctx context.Context, systems []string, resolutions []int) ([]Table1Row, error) {
	if len(systems) == 0 {
		systems = []string{"double-pendulum", "triple-pendulum", "lorenz"}
	}
	if len(resolutions) == 0 {
		resolutions = []int{DefaultRes}
	}
	var rows []Table1Row
	for _, sysName := range systems {
		for _, res := range resolutions {
			space, err := SpaceFor(sysName, res, res)
			if err != nil {
				return nil, err
			}
			part, err := Config{System: sysName, Pivot: space.TimeMode(), PivotFrac: 1, FreeFrac: 1, Seed: DefaultSeed}.generate(ctx, space)
			if err != nil {
				return nil, err
			}
			cells := part.Sub1.Tensor.NNZ() + part.Sub2.Tensor.NNZ()
			full := space.Shape().NumElements()
			rows = append(rows, Table1Row{
				System:         sysName,
				Res:            res,
				TimeSamples:    res,
				FullSpaceCells: full,
				Budget:         part.NumSims,
				EnsembleCells:  cells,
				Density:        float64(cells) / float64(full),
				StorageBytes:   cells * (space.Order() + 1) * 8,
			})
		}
	}
	return rows, nil
}

// RenderTable1 prints the configuration summary.
func RenderTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintln(w, "TABLE I: Key system parameters (scaled; see DESIGN.md)")
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "System\tRes\tT\tFull cells\tBudget\tEns. cells\tDensity\tStorage")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%.2e\t%s\n",
			r.System, r.Res, r.TimeSamples, r.FullSpaceCells, r.Budget,
			r.EnsembleCells, r.Density, fmtBytes(r.StorageBytes))
	}
	tw.Flush()
}

func fmtBytes(n int) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

// Fig6Row quantifies the density-boosting argument of the paper's
// Figure 6 for one sub-ensemble density E: the raw density of the
// conventional ensemble, the union density, and the effective densities
// after join and zero-join stitching.
type Fig6Row struct {
	FreeFrac         float64
	RawDensity       float64
	UnionDensity     float64
	JoinDensity      float64
	ZeroJoinDensity  float64
	JoinBoostFactor  float64 // join density / raw density
	ZeroBoostFactor  float64 // zero-join density / raw density
	SimulationBudget int
}

// Fig6 reproduces Figure 6 numerically: for each sub-ensemble density it
// generates the PF-partition, counts the join and zero-join cells, and
// reports cell densities relative to conventional sampling at the same
// budget.
func Fig6(ctx context.Context, base Config, freeFracs []float64) ([]Fig6Row, error) {
	if len(freeFracs) == 0 {
		freeFracs = []float64{1.0, 0.5, 0.25}
	}
	cfg := baseOrDefault(base, "double-pendulum")
	var rows []Fig6Row
	for _, frac := range freeFracs {
		cfg.FreeFrac = frac
		part, err := cfg.ensemble(ctx)
		if err != nil {
			return nil, err
		}
		space := part.Space
		full := float64(space.Shape().NumElements())
		// Conventional sampling with the same budget yields one trajectory
		// (time fiber) per simulation.
		raw := float64(part.NumSims*space.TimeSamples) / full
		union := float64(UnionTensor(part).NNZ()) / full
		join := float64(part.JoinCells(false)) / full
		zero := float64(part.JoinCells(true)) / full
		rows = append(rows, Fig6Row{
			FreeFrac:         frac,
			RawDensity:       raw,
			UnionDensity:     union,
			JoinDensity:      join,
			ZeroJoinDensity:  zero,
			JoinBoostFactor:  join / raw,
			ZeroBoostFactor:  zero / raw,
			SimulationBudget: part.NumSims,
		})
	}
	return rows, nil
}

// RenderFig6 prints the density-boost report.
func RenderFig6(w io.Writer, rows []Fig6Row) {
	fmt.Fprintln(w, "FIGURE 6: Effective density of PF-partitioning + JE-stitching")
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "E\tBudget\tRaw\tUnion\tJoin\tZero-join\tJoin boost\tZero boost")
	for _, r := range rows {
		fmt.Fprintf(tw, "%.0f%%\t%d\t%.2e\t%.2e\t%.2e\t%.2e\t%.1fx\t%.1fx\n",
			r.FreeFrac*100, r.SimulationBudget, r.RawDensity, r.UnionDensity,
			r.JoinDensity, r.ZeroJoinDensity, r.JoinBoostFactor, r.ZeroBoostFactor)
	}
	tw.Flush()
}
