package eval

import (
	"encoding/csv"
	"io"
	"strconv"
)

// ExportComparisonsCSV writes comparisons as flat CSV rows (one row per
// scheme per experiment cell) for external plotting tools.
func ExportComparisonsCSV(w io.Writer, cmps []*Comparison) error {
	cw := csv.NewWriter(w)
	header := []string{
		"system", "res", "time_samples", "rank", "pivot",
		"pivot_frac", "free_frac", "zero_join", "seed",
		"scheme", "accuracy", "decomp_ms", "num_sims", "ensemble_nnz",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, cmp := range cmps {
		c := cmp.Config
		for _, r := range cmp.Results {
			row := []string{
				c.System,
				strconv.Itoa(c.Res),
				strconv.Itoa(c.TimeSamples),
				strconv.Itoa(c.Rank),
				strconv.Itoa(c.Pivot),
				strconv.FormatFloat(c.PivotFrac, 'g', -1, 64),
				strconv.FormatFloat(c.FreeFrac, 'g', -1, 64),
				strconv.FormatBool(c.ZeroJoin),
				strconv.FormatInt(c.Seed, 10),
				string(r.Scheme),
				strconv.FormatFloat(r.Accuracy, 'g', -1, 64),
				strconv.FormatFloat(float64(r.DecompTime.Microseconds())/1000, 'g', -1, 64),
				strconv.Itoa(r.NumSims),
				strconv.Itoa(r.EnsembleNNZ),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
