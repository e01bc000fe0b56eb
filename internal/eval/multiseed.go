package eval

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/stats"
)

// SeedSweep aggregates one experiment cell across multiple sampling
// seeds, giving variance-aware accuracy summaries per scheme. The paper
// reports point estimates; the sweep quantifies how sensitive each scheme
// is to the random sampling of sub-ensembles.
type SeedSweep struct {
	Config Config
	Seeds  []int64
	// Accuracy maps each scheme to its accuracy summary across seeds.
	Accuracy map[Scheme]stats.Summary
	// Comparisons holds the raw per-seed results, in seed order.
	Comparisons []*Comparison
}

// RunSeeds evaluates the configuration once per seed and aggregates.
func RunSeeds(ctx context.Context, cfg Config, seeds []int64) (*SeedSweep, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("eval: RunSeeds requires at least one seed")
	}
	sweep := &SeedSweep{Config: cfg, Seeds: seeds, Accuracy: make(map[Scheme]stats.Summary)}
	acc := make(map[Scheme][]float64)
	for _, seed := range seeds {
		c := cfg
		c.Seed = seed
		cmp, err := RunComparison(ctx, c)
		if err != nil {
			return nil, fmt.Errorf("eval: seed %d: %w", seed, err)
		}
		sweep.Comparisons = append(sweep.Comparisons, cmp)
		for _, r := range cmp.Results {
			acc[r.Scheme] = append(acc[r.Scheme], r.Accuracy)
		}
	}
	for scheme, xs := range acc {
		sweep.Accuracy[scheme] = stats.Summarize(xs)
	}
	return sweep, nil
}

// RenderSeedSweep prints per-scheme accuracy mean ± std across seeds.
func RenderSeedSweep(w io.Writer, sweep *SeedSweep) {
	fmt.Fprintf(w, "Accuracy across %d seeds (%s, res %d, rank %d)\n",
		len(sweep.Seeds), sweep.Config.System, sweep.Config.Res, sweep.Config.Rank)
	tw := tabwriter.NewWriter(w, 6, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Scheme\tMean\tStd\tMin\tMax")
	for _, s := range AllSchemes() {
		sum, ok := sweep.Accuracy[s]
		if !ok {
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%.2g\t%s\t%s\n",
			s, fmtAcc(sum.Mean), sum.Std, fmtAcc(sum.Min), fmtAcc(sum.Max))
	}
	tw.Flush()
}
