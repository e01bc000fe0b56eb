package tensor

import (
	"fmt"

	"repro/internal/mat"
	"repro/internal/parallel"
)

// TTM computes the mode-n tensor–matrix product Y = X ×ₙ M for a dense
// tensor, where M is J × I_n and the result has mode-n size J:
//
//	Y(i₁,…,j,…,i_N) = Σ_{iₙ} M(j, iₙ) · X(i₁,…,iₙ,…,i_N).
//
// It runs on the package-default worker pool; see TTMWorkers.
func TTM(x *Dense, n int, m *mat.Matrix) *Dense { return TTMWorkers(x, n, m, 0) }

// TTMWorkers is TTM on an explicit worker count (workers <= 0 selects the
// parallel package default). Fibers are enumerated by stride walking —
// base(f) = (f/inner)·inner·I_n + f%inner with inner = Π_{k>n} I_k — so no
// linear index is ever MultiIndex-decoded and no non-fiber-base element is
// visited. Every fiber writes a disjoint set of output elements and each
// output element is a single dot product accumulated in the serial order,
// so the result is bit-identical for any worker count (and to the
// pre-stride-walk kernel).
func TTMWorkers(x *Dense, n int, m *mat.Matrix, workers int) *Dense {
	if m.Cols != x.Shape[n] {
		panic(fmt.Sprintf("tensor: TTM mode %d size %d != matrix cols %d", n, x.Shape[n], m.Cols))
	}
	outShape := x.Shape.Clone()
	outShape[n] = m.Rows
	out := NewDense(outShape)
	ttmDenseKernel(x, n, m, out, workers)
	return out
}

// ttmDenseKernel computes the mode-n dense TTM into a preallocated output
// tensor (shape x.Shape with mode n resized to m.Rows). Every output
// element is assigned exactly once, so out does not need to be zeroed.
func ttmDenseKernel(x *Dense, n int, m *mat.Matrix, out *Dense, workers int) {
	inSize := x.Shape[n]
	outSize := m.Rows
	order := x.Shape.Order()
	inner := 1
	for k := n + 1; k < order; k++ {
		inner *= x.Shape[k]
	}
	total := len(x.Data)
	if total == 0 || inSize == 0 {
		return
	}
	numFibers := total / inSize

	// Per-fiber cost is one inSize×outSize panel; AutoGrain keeps the
	// fan-out amortised (scheduling only — fibers write disjoint outputs).
	grain := parallel.AutoGrain(float64(inSize) * float64(outSize))
	if parallel.Resolve(workers) <= 1 || numFibers < 2*grain {
		ttmDenseRange(x, m, out, inner, inSize, outSize, 0, numFibers)
		return
	}
	parallel.ForGrain(numFibers, workers, grain, func(lo, hi int) {
		ttmDenseRange(x, m, out, inner, inSize, outSize, lo, hi)
	})
}

// ttmDenseRange processes fibers [lo, hi) of the stride-walk enumeration:
// fiber f has input base (f/inner)·inner·inSize + f%inner and output base
// (f/inner)·inner·outSize + f%inner; both advance incrementally.
func ttmDenseRange(x *Dense, m *mat.Matrix, out *Dense, inner, inSize, outSize, lo, hi int) {
	q, r := lo/inner, lo%inner
	inBase := q*inner*inSize + r
	outBase := q*inner*outSize + r
	for f := lo; f < hi; f++ {
		for j := 0; j < outSize; j++ {
			row := m.Row(j)
			var s float64
			for i := 0; i < inSize; i++ {
				s += row[i] * x.Data[inBase+i*inner]
			}
			out.Data[outBase+j*inner] = s
		}
		r++
		inBase++
		outBase++
		if r == inner {
			r = 0
			inBase += inner * (inSize - 1)
			outBase += inner * (outSize - 1)
		}
	}
}

// MultiTTM applies Y = X ×₁ M[0] ×₂ M[1] … over all modes sequentially.
// A nil entry skips that mode. Matrices are applied in increasing mode
// order; since each M[k] typically has far fewer rows than columns
// (rank ≪ mode size), intermediate tensors shrink monotonically.
func MultiTTM(x *Dense, ms []*mat.Matrix) *Dense { return MultiTTMWorkers(x, ms, 0) }

// MultiTTMWorkers is MultiTTM on an explicit worker count.
func MultiTTMWorkers(x *Dense, ms []*mat.Matrix, workers int) *Dense {
	if len(ms) != x.Shape.Order() {
		panic(fmt.Sprintf("tensor: MultiTTM got %d matrices for order-%d tensor", len(ms), x.Shape.Order()))
	}
	cur := x
	for n, m := range ms {
		if m == nil {
			continue
		}
		cur = TTMWorkers(cur, n, m, workers)
	}
	return cur
}

// MultiTTMSparse applies all mode products to a sparse tensor: the first
// non-nil matrix consumes the sparse input, the rest proceed densely.
func MultiTTMSparse(x *Sparse, ms []*mat.Matrix) *Dense { return MultiTTMSparseWorkers(x, ms, 0) }

// MultiTTMSparseWorkers is MultiTTMSparse on an explicit worker count. It
// is the one sparse TTM chain: HOSVD's core, CoreFromFactors, HOOI's mode
// updates and every campaign's ProjectShard run it. With all matrices nil
// the tensor is densified.
//
// The sparse product is one serial scatter of the entries as stored, so
// every output cell sums its entries in storage order; the dense products
// after it fan out over workers with the same bits at any count.
func MultiTTMSparseWorkers(x *Sparse, ms []*mat.Matrix, workers int) *Dense {
	if len(ms) != x.Order() {
		panic(fmt.Sprintf("tensor: MultiTTMSparse got %d matrices for order-%d tensor", len(ms), x.Order()))
	}
	start := 0
	for start < len(ms) && ms[start] == nil {
		start++
	}
	if start == len(ms) {
		return x.ToDense()
	}
	m := ms[start]
	if m.Cols != x.Shape[start] {
		panic(fmt.Sprintf("tensor: TTMSparse mode %d size %d != matrix cols %d", start, x.Shape[start], m.Cols))
	}
	outShape := x.Shape.Clone()
	outShape[start] = m.Rows
	cur := NewDense(outShape)
	outStrides := outShape.Strides()
	stride, o := outStrides[start], x.Order()
	for e := range x.Vals {
		idx := x.Idx[e*o : (e+1)*o]
		base := 0
		for k, i := range idx {
			if k != start {
				base += i * outStrides[k]
			}
		}
		v, in := x.Vals[e], idx[start]
		for j := 0; j < m.Rows; j++ {
			cur.Data[base+j*stride] += v * m.At(j, in)
		}
	}
	for n := start + 1; n < len(ms); n++ {
		if ms[n] != nil {
			cur = TTMWorkers(cur, n, ms[n], workers)
		}
	}
	return cur
}

// TuckerReconstruct computes X̃ = G ×₁ U(1) ×₂ … ×ₙ U(N), expanding a
// core tensor back to the full space through factor matrices U(n) of shape
// I_n × r_n.
func TuckerReconstruct(core *Dense, factors []*mat.Matrix) *Dense {
	if len(factors) != core.Shape.Order() {
		panic(fmt.Sprintf("tensor: TuckerReconstruct got %d factors for order-%d core", len(factors), core.Shape.Order()))
	}
	return MultiTTM(core, factors)
}

// TransposeAll returns the transposes of the given factor matrices;
// convenience for core recovery G = X ×₁ U(1)ᵀ ….
func TransposeAll(factors []*mat.Matrix) []*mat.Matrix {
	out := make([]*mat.Matrix, len(factors))
	for i, f := range factors {
		if f != nil {
			out[i] = mat.Transpose(f)
		}
	}
	return out
}
