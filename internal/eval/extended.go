package eval

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"

	"repro/internal/ensemble"
)

// SchemeLHS and SchemeUnion are the extra baselines of the extended
// comparison: Latin hypercube sampling (experiment-design literature) and
// the paper's naive union alternative (Section I-C).
const (
	SchemeLHS   Scheme = "LHS"
	SchemeUnion Scheme = "Union"
)

// ExtendedComparison augments the paper's six-scheme comparison with the
// LHS and Union baselines, at the same simulation budget. LHS probes
// whether smarter space-filling alone closes the gap (it does not);
// Union quantifies the paper's argument for stitching over pooling.
func ExtendedComparison(ctx context.Context, cfg Config) (*Comparison, error) {
	cmp, err := RunComparison(ctx, cfg)
	if err != nil {
		return nil, err
	}
	space, err := SpaceFor(cfg.System, cfg.Res, cfg.TimeSamples)
	if err != nil {
		return nil, err
	}
	sel, _ := cmp.Get(SchemeSELECT)

	// LHS at the shared budget.
	sims := ensemble.LatinHypercubeSample(space, sel.NumSims, rand.New(rand.NewSource(cfg.Seed+3)))
	score, err := cfg.scorer(ctx, space)
	if err != nil {
		return nil, err
	}
	lhs, err := cfg.conventionalRow(ctx, space, SchemeLHS, sims, cfg.Seed+9, score)
	if err != nil {
		return nil, err
	}
	cmp.Results = append(cmp.Results, lhs)

	// Union of the PF-partitioned sub-ensembles (regenerated with the same
	// seed, so it matches the M2TD rows' inputs).
	part, err := cfg.generate(ctx, space)
	if err != nil {
		return nil, err
	}
	union, err := UnionResult(part, cfg.Rank)
	if err != nil {
		return nil, err
	}
	cmp.Results = append(cmp.Results, union)
	return cmp, nil
}

// RenderExtended prints the eight-column extended comparison.
func RenderExtended(w io.Writer, cmps []*Comparison) {
	fmt.Fprintln(w, "EXTENDED BASELINES: Accuracy including LHS and Union")
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Res.\tRank\t%s\tLHS\tUnion\n", schemeHeader)
	extended := append(AllSchemes(), SchemeLHS, SchemeUnion)
	for _, cmp := range cmps {
		fmt.Fprintf(tw, "%d\t%d", cmp.Config.Res, cmp.Config.Rank)
		for _, s := range extended {
			r, ok := cmp.Get(s)
			if !ok {
				fmt.Fprint(tw, "\t-")
				continue
			}
			fmt.Fprintf(tw, "\t%s", fmtAcc(r.Accuracy))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}
