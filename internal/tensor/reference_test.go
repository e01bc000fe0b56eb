package tensor

import (
	"sort"

	"repro/internal/mat"
	"repro/internal/parallel"
)

// This file retains the pre-stride-walk kernel implementations (renamed
// with a Ref suffix) and the specifications of the sparse Gram's column
// rule. They are the executable specification the optimised kernels are
// held to: the parity suites in parity_test.go and strips_test.go assert
// bit-identical output against them for workers ∈ {1, N}. They are
// referenced only by tests and must not be used in pipelines.

// gramTripleRef is one sparse entry keyed by its matricization column.
type gramTripleRef struct {
	col int
	row int
	val float64
}

// columnsRef lists s's entries stable-sorted by mode-n matricization
// column — storage order within a column — and the column bounds:
// entries bounds[g] up to bounds[g+1] share column g.
func columnsRef(s *Sparse, n int) (ts []gramTripleRef, bounds []int) {
	o := s.Order()
	ts = make([]gramTripleRef, s.NNZ())
	for e := range ts {
		idx := s.Idx[e*o : (e+1)*o]
		ts[e] = gramTripleRef{col: s.Shape.MatricizeColumn(n, idx), row: idx[n], val: s.Vals[e]}
	}
	sort.SliceStable(ts, func(a, b int) bool { return ts[a].col < ts[b].col })
	for start := 0; start < len(ts); {
		bounds = append(bounds, start)
		end := start + 1
		for end < len(ts) && ts[end].col == ts[start].col {
			end++
		}
		start = end
	}
	return ts, append(bounds, len(ts))
}

// addColumnRef adds one column's share of the upper triangle of a Gram
// with rows×rows entries g, for Gram rows r0 up to r1: each row's cells
// summed in storage order, then, for every two rows a ≤ b that occur, the
// product of their sums at (a, b). A zero row sum adds nothing.
func addColumnRef(g []float64, rows, r0, r1 int, column []gramTripleRef) {
	sum := make([]float64, rows)
	held := make([]bool, rows)
	for _, c := range column {
		sum[c.row] += c.val
		held[c.row] = true
	}
	for a := r0; a < r1; a++ {
		if !held[a] || sum[a] == 0 {
			continue
		}
		for b := a; b < rows; b++ {
			if held[b] {
				g[a*rows+b] += sum[a] * sum[b]
			}
		}
	}
}

// mirrorRef copies g's upper triangle into its lower one.
func mirrorRef(g *mat.Matrix) *mat.Matrix {
	for i := 0; i < g.Rows; i++ {
		for j := i + 1; j < g.Rows; j++ {
			g.Data[j*g.Rows+i] = g.Data[i*g.Rows+j]
		}
	}
	return g
}

// modeGramWorkersRef is the serial specification of ModeGramWorkers on a
// tensor without a run mode: every column in ascending order, split over
// Gram rows among workers (each Gram entry sums its columns in order).
func modeGramWorkersRef(s *Sparse, n, workers int) *mat.Matrix {
	rows := s.Shape[n]
	g := mat.New(rows, rows)
	ts, bounds := columnsRef(s, n)
	parallel.For(rows, workers, func(r0, r1 int) {
		for gi := 0; gi+1 < len(bounds); gi++ {
			addColumnRef(g.Data, rows, r0, r1, ts[bounds[gi]:bounds[gi+1]])
		}
	})
	return mirrorRef(g)
}

// modeGramDenseWorkersRef is the previous ModeGramDenseWorkers: every
// worker decodes the full linear index range and skips non-fiber-base
// elements.
func modeGramDenseWorkersRef(d *Dense, n, workers int) *mat.Matrix {
	rows := d.Shape[n]
	g := mat.New(rows, rows)
	shape := d.Shape
	strides := shape.Strides()
	stride := strides[n]
	total := shape.NumElements()
	parallel.For(rows, workers, func(r0, r1 int) {
		fiber := make([]float64, rows)
		idx := make([]int, shape.Order())
		for lin := 0; lin < total; lin++ {
			shape.MultiIndex(lin, idx)
			if idx[n] != 0 {
				continue
			}
			base := lin
			zero := true
			for r := 0; r < rows; r++ {
				fiber[r] = d.Data[base+r*stride]
				if fiber[r] != 0 {
					zero = false
				}
			}
			if zero {
				continue
			}
			for a := r0; a < r1; a++ {
				if fiber[a] == 0 {
					continue
				}
				ga := g.Row(a)
				va := fiber[a]
				for b := 0; b < rows; b++ {
					ga[b] += va * fiber[b]
				}
			}
		}
	})
	return g
}

// ttmWorkersRef is the previous TTMWorkers: every linear index is
// MultiIndex-decoded and non-fiber-base elements are skipped, at that
// kernel's fixed grain of 2048 linear indices per worker.
func ttmWorkersRef(x *Dense, n int, m *mat.Matrix, workers int) *Dense {
	outShape := x.Shape.Clone()
	outShape[n] = m.Rows
	out := NewDense(outShape)

	inStride := x.Shape.Strides()[n]
	outStride := outShape.Strides()[n]
	inSize := x.Shape[n]
	outSize := m.Rows

	total := x.Shape.NumElements()
	outStrides := outShape.Strides()
	parallel.ForGrain(total, workers, 2048, func(lo, hi int) {
		idx := make([]int, x.Shape.Order())
		for lin := lo; lin < hi; lin++ {
			x.Shape.MultiIndex(lin, idx)
			if idx[n] != 0 {
				continue
			}
			outBase := 0
			for k, i := range idx {
				outBase += i * outStrides[k]
			}
			for j := 0; j < outSize; j++ {
				var s float64
				row := m.Row(j)
				for i := 0; i < inSize; i++ {
					s += row[i] * x.Data[lin+i*inStride]
				}
				out.Data[outBase+j*outStride] = s
			}
		}
	})
	return out
}

// ttmSparseRefMinNNZ is the size under which ttmSparseWorkersRef runs its
// serial scatter.
const ttmSparseRefMinNNZ = 4096

// ttmSparseWorkersRef is the previous one-mode sparse TTM: phase 2 partitions
// output slabs j and every worker re-scans all nnz entries.
func ttmSparseWorkersRef(x *Sparse, n int, m *mat.Matrix, workers int) *Dense {
	outShape := x.Shape.Clone()
	outShape[n] = m.Rows
	out := NewDense(outShape)
	outStrides := outShape.Strides()
	stride := outStrides[n]

	nnz := x.NNZ()
	if parallel.Resolve(workers) <= 1 || nnz < ttmSparseRefMinNNZ || m.Rows == 1 {
		x.Each(func(idx []int, v float64) {
			base := 0
			for k, i := range idx {
				if k == n {
					continue
				}
				base += i * outStrides[k]
			}
			in := idx[n]
			for j := 0; j < m.Rows; j++ {
				out.Data[base+j*stride] += v * m.At(j, in)
			}
		})
		return out
	}

	o := x.Order()
	bases := make([]int, nnz)
	ins := make([]int, nnz)
	parallel.ForGrain(nnz, workers, 1024, func(lo, hi int) {
		for e := lo; e < hi; e++ {
			idx := x.Idx[e*o : (e+1)*o]
			base := 0
			for k, i := range idx {
				if k == n {
					continue
				}
				base += i * outStrides[k]
			}
			bases[e] = base
			ins[e] = idx[n]
		}
	})

	parallel.For(m.Rows, workers, func(j0, j1 int) {
		for e := 0; e < nnz; e++ {
			v := x.Vals[e]
			base := bases[e]
			in := ins[e]
			for j := j0; j < j1; j++ {
				out.Data[base+j*stride] += v * m.At(j, in)
			}
		}
	})
	return out
}

// modeGramStripRef is the executable specification of ModeGramWorkers on
// a tensor without a run mode (findRuns finds no τ): the stable-sorted
// columns, a reduction grid over them balanced by cell count, one serial
// pass per strip into a fresh dense partial — the column rule of
// addColumnRef — then an explicit pairwise tree merge ascending by strip
// index (span doubling each level), and the mirror. No pooling, no
// goroutines: the parity suite asserts the kernel matches this bit for bit
// at every worker count, which is exactly the claim that workers only
// decide WHEN a partial is produced, never where it lands in the tree.
func modeGramStripRef(s *Sparse, n int) *mat.Matrix {
	rows := s.Shape[n]
	g := mat.New(rows, rows)
	if s.NNZ() == 0 {
		return g
	}
	ts, bounds := columnsRef(s, n)
	weights := make([]int, len(bounds)-1)
	for gi := range weights {
		weights[gi] = bounds[gi+1] - bounds[gi]
	}
	strips := parallel.BalancedStripBounds(weights, stripMinCells, maxGramStrips)
	partials := make([][]float64, len(strips)-1)
	for st := range partials {
		gm := make([]float64, rows*rows)
		for gi := strips[st]; gi < strips[st+1]; gi++ {
			addColumnRef(gm, rows, 0, rows, ts[bounds[gi]:bounds[gi+1]])
		}
		partials[st] = gm
	}
	copy(g.Data, treeMergeRef(partials))
	return mirrorRef(g)
}

// modeGramDenseStripRef is the executable specification of the
// strip-reduced ModeGramDenseWorkers, built on the same fiber base list
// and strip grid, with fresh partials and an explicit tree merge.
func modeGramDenseStripRef(d *Dense, n int) *mat.Matrix {
	rows := d.Shape[n]
	g := mat.New(rows, rows)
	total := d.Shape.NumElements()
	if total == 0 || rows == 0 {
		return g
	}
	inner := 1
	for k := n + 1; k < d.Shape.Order(); k++ {
		inner *= d.Shape[k]
	}
	var bases []int
	for f := 0; f < total/rows; f++ {
		base := (f/inner)*inner*rows + f%inner
		for i := 0; i < rows; i++ {
			if d.Data[base+i*inner] != 0 {
				bases = append(bases, base)
				break
			}
		}
	}
	if len(bases) == 0 {
		return g
	}
	strips := parallel.UniformStripBounds(len(bases), denseGramStripGrain, maxGramStrips)
	partials := make([][]float64, len(strips)-1)
	fiber := make([]float64, rows)
	for st := range partials {
		partials[st] = make([]float64, rows*rows)
		denseGramAccumulate(partials[st], d.Data, bases, fiber, inner, rows, strips[st], strips[st+1])
	}
	copy(g.Data, treeMergeRef(partials))
	return g
}

// treeMergeRef folds per-strip partials through the fixed pairwise tree:
// level k merges partials[i] ← partials[i+2ᵏ] for i ≡ 0 (mod 2ᵏ⁺¹). The
// shape depends only on the strip count.
func treeMergeRef(partials [][]float64) []float64 {
	s := len(partials)
	for span := 1; span < s; span *= 2 {
		for i := 0; i+span < s; i += 2 * span {
			for j, v := range partials[i+span] {
				partials[i][j] += v
			}
		}
	}
	return partials[0]
}

// foldRef inverts Matricize: it reshapes an I_n × Π_{k≠n} I_k matrix back
// into a dense tensor, decoding each column with a div/mod chain and
// placing each element through a full LinearIndex call.
func foldRef(m *mat.Matrix, n int, shape Shape) *Dense {
	out := NewDense(shape)
	order := shape.Order()
	idx := make([]int, order)
	modes := make([]int, 0, order-1)
	for k := 0; k < order; k++ {
		if k != n {
			modes = append(modes, k)
		}
	}
	for col := 0; col < m.Cols; col++ {
		c := col
		for _, k := range modes {
			idx[k] = c % shape[k]
			c /= shape[k]
		}
		for r := 0; r < m.Rows; r++ {
			idx[n] = r
			out.Data[shape.LinearIndex(idx)] = m.At(r, col)
		}
	}
	return out
}
