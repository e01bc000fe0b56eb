package tucker

import (
	"repro/internal/mat"
	"repro/internal/tensor"
)

// HOSVDReference is the paper's Algorithm 1 implemented literally: for
// each mode the tensor is explicitly matricized and the factor matrix is
// taken as the rₙ leading left singular vectors of that unfolding via a
// full SVD, then the core is recovered by the mode products.
//
// The production HOSVD never materialises the unfoldings (whose column
// count is the product of all other mode sizes) — it eigendecomposes the
// small Iₙ×Iₙ Gram matrices instead, which spans the same subspaces. This
// reference implementation exists to validate that shortcut (see the
// equivalence test) and for small-tensor debugging; it is exponentially
// more expensive and should not be used in pipelines.
func HOSVDReference(x *tensor.Dense, ranks []int) Decomposition {
	ranks = ClipRanks(x.Shape, ranks)
	order := x.Shape.Order()
	factors := make([]*mat.Matrix, order)
	for n := 0; n < order; n++ {
		unfolding := tensor.Matricize(x, n)
		svd := mat.SVD(unfolding)
		factors[n] = svd.U.FirstColumns(ranks[n])
	}
	core := tensor.MultiTTM(x, tensor.TransposeAll(factors))
	return Decomposition{Core: core, Factors: factors, Ranks: ranks}
}
