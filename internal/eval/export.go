package eval

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
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

// jsonComparison is the JSON shape of one experiment cell.
type jsonComparison struct {
	Config  Config           `json:"config"`
	Results []jsonSchemeCell `json:"results"`
}

type jsonSchemeCell struct {
	Scheme      string  `json:"scheme"`
	Accuracy    float64 `json:"accuracy"`
	DecompMs    float64 `json:"decompMs"`
	NumSims     int     `json:"numSims"`
	EnsembleNNZ int     `json:"ensembleNnz"`
}

// ExportComparisonsJSON writes comparisons as a JSON array.
func ExportComparisonsJSON(w io.Writer, cmps []*Comparison) error {
	out := make([]jsonComparison, 0, len(cmps))
	for _, cmp := range cmps {
		jc := jsonComparison{Config: cmp.Config}
		for _, r := range cmp.Results {
			jc.Results = append(jc.Results, jsonSchemeCell{
				Scheme:      string(r.Scheme),
				Accuracy:    r.Accuracy,
				DecompMs:    float64(r.DecompTime.Microseconds()) / 1000,
				NumSims:     r.NumSims,
				EnsembleNNZ: r.EnsembleNNZ,
			})
		}
		out = append(out, jc)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ExportTable3CSV writes D-M2TD phase rows as CSV.
func ExportTable3CSV(w io.Writer, rows []Table3Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"workers", "phase1_ms", "phase2_ms", "phase3_ms", "total_ms", "join_free_total_ms"}); err != nil {
		return err
	}
	ms := func(d int64) string { return fmt.Sprintf("%.3f", float64(d)/1e6) }
	for _, r := range rows {
		row := []string{
			strconv.Itoa(r.Workers),
			ms(int64(r.Phase1)),
			ms(int64(r.Phase2)),
			ms(int64(r.Phase3)),
			ms(int64(r.Total())),
			ms(int64(r.JoinFree)),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
