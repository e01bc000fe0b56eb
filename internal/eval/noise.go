package eval

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"text/tabwriter"

	"repro/internal/tensor"
)

// AddNoise perturbs every stored cell with zero-mean Gaussian noise whose
// standard deviation is frac times the tensor's RMS cell value, in place.
// Models measurement / stochastic-realisation uncertainty on simulation
// outputs.
func AddNoise(sp *tensor.Sparse, frac float64, rng *rand.Rand) {
	if frac <= 0 || sp.NNZ() == 0 {
		return
	}
	var sumSq float64
	for _, v := range sp.Vals {
		sumSq += v * v
	}
	rms := sumSq / float64(sp.NNZ())
	if rms == 0 {
		return
	}
	sigma := frac * math.Sqrt(rms)
	for i := range sp.Vals {
		//lint:allow quarantine -- in-place perturbation preserves finiteness (sigma and NormFloat64 are finite); InvalidatePlans is called below
		sp.Vals[i] += sigma * rng.NormFloat64()
	}
	// Vals were mutated directly: drop any compiled kernel plans so the
	// next ModeGram/TTM recompiles against the perturbed values.
	sp.InvalidatePlans()
}

// NoiseRow is one noise level of the robustness sweep.
type NoiseRow struct {
	// NoiseFrac is the noise standard deviation as a fraction of the RMS
	// cell value.
	NoiseFrac  float64
	Comparison *Comparison
}

// NoiseSweep measures accuracy for every scheme as multiplicative cell
// noise grows — a robustness ablation beyond the paper's noise-free
// evaluation. Noise is injected into the sub-ensembles (for M2TD schemes)
// and the sampled ensemble (for conventional schemes) after simulation,
// before decomposition.
func NoiseSweep(ctx context.Context, base Config, fracs []float64) ([]NoiseRow, error) {
	if len(fracs) == 0 {
		fracs = []float64{0, 0.05, 0.2, 0.5}
	}
	// Noise is added after simulation: every row perturbs its own copy of
	// one clean ensemble.
	space, part, err := base.ensemble(ctx)
	if err != nil {
		return nil, fmt.Errorf("noise sweep: %w", err)
	}
	var rows []NoiseRow
	for _, frac := range fracs {
		cfg := base
		cfg.NoiseFrac = frac
		cmp, err := runComparisonOn(ctx, cfg, space, part)
		if err != nil {
			return nil, fmt.Errorf("noise sweep frac=%v: %w", frac, err)
		}
		rows = append(rows, NoiseRow{NoiseFrac: frac, Comparison: cmp})
	}
	return rows, nil
}

// RenderNoiseSweep prints the robustness sweep in the shared table layout.
func RenderNoiseSweep(w io.Writer, rows []NoiseRow) {
	fmt.Fprintln(w, "NOISE SWEEP: Accuracy under multiplicative cell noise")
	tw := tabwriter.NewWriter(w, 4, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Noise\t%s\n", schemeHeader)
	for _, r := range rows {
		fmt.Fprintf(tw, "%.0f%%\t", r.NoiseFrac*100)
		writeSchemeCells(tw, r.Comparison, func(sr SchemeResult) string { return fmtAcc(sr.Accuracy) })
		fmt.Fprintln(tw)
	}
	tw.Flush()
}
