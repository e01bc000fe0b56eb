package eval

import (
	"time"

	"repro/internal/partition"
	"repro/internal/tensor"
	"repro/internal/tucker"
)

// UnionTensor maps both PF-partitioned sub-ensembles back into a single
// sparse tensor over the original mode space, with each sub-system's
// fixed modes at their default indices — the paper's naive "union the two
// ensembles into one 5-mode tensor" alternative (Section I-C), which it
// argues leaves the overall density too low for accuracy gains.
// Cells sampled by both sub-systems (the shared pivot/default
// coordinates) are averaged.
func UnionTensor(p *partition.Result) *tensor.Sparse {
	space := p.Space
	u := tensor.NewSparse(space.Shape())
	def := space.DefaultIndex()
	defTime := space.TimeSamples / 2
	full := make([]int, space.Order())
	add := func(sub *partition.SubEnsemble) {
		sub.Tensor.Each(func(idx []int, v float64) {
			for m := 0; m < space.NumParams(); m++ {
				full[m] = def
			}
			full[space.TimeMode()] = defTime
			for i, m := range sub.Modes {
				full[m] = idx[i]
			}
			u.Append(full, v)
		})
	}
	add(p.Sub1)
	add(p.Sub2)
	u.Dedup(tensor.MeanDuplicates)
	return u
}

// UnionResult evaluates the union alternative: HOSVD of the unioned
// tensor, scored like the schemes it is compared with, with the same budget
// accounting as the partition it came from.
func UnionResult(p *partition.Result, rank int, score func(TuckerModel) (float64, error)) (SchemeResult, error) {
	u := UnionTensor(p)
	start := time.Now()
	dec := tucker.HOSVD(u, tucker.UniformRanks(p.Space.Order(), rank))
	elapsed := time.Since(start)
	acc, err := score(TuckerModel{Core: dec.Core, Factors: dec.Factors})
	return SchemeResult{
		Scheme:      SchemeUnion,
		Accuracy:    acc,
		DecompTime:  elapsed,
		NumSims:     p.NumSims,
		EnsembleNNZ: u.NNZ(),
	}, err
}
