package tensor

import (
	"repro/internal/mat"
	"repro/internal/parallel"
)

// Matricize returns the mode-n matricization X(n) of a dense tensor as an
// I_n × Π_{k≠n} I_k matrix. It runs on the package-default worker pool;
// see MatricizeWorkers.
func Matricize(d *Dense, n int) *mat.Matrix { return MatricizeWorkers(d, n, 0) }

// MatricizeWorkers is Matricize on an explicit worker count. Each linear
// index maps to a unique (row, column) output cell, so partitioning the
// element range across workers is write-disjoint and bit-identical to the
// serial loop for any worker count.
func MatricizeWorkers(d *Dense, n, workers int) *mat.Matrix {
	shape := d.Shape
	rows := shape[n]
	cols := shape.MatricizeCols(n)
	out := mat.New(rows, cols)
	parallel.ForGrain(len(d.Data), workers, parallel.AutoGrain(4*float64(shape.Order())), func(lo, hi int) {
		idx := make([]int, shape.Order())
		for lin := lo; lin < hi; lin++ {
			v := d.Data[lin]
			if v == 0 {
				continue
			}
			shape.MultiIndex(lin, idx)
			out.Set(idx[n], shape.MatricizeColumn(n, idx), v)
		}
	})
	return out
}

// ModeGramDenseWorkers computes X(n)·X(n)ᵀ for a dense tensor without
// allocating the matricization, on an explicit worker count (0 = the
// package default).
//
// Fibers are enumerated by stride walking: a mode-n fiber base is
// base(f) = (f/inner)·inner·I_n + f%inner with inner = Π_{k>n} I_k, so the
// enumeration needs no MultiIndex decode and visits no non-base element.
// The all-zero-fiber scan is hoisted out of the per-worker loop: one
// shared pass marks nonzero fibers (write-disjoint) and the base list is
// assembled once in ascending order.
//
// The accumulation strips the BASE LIST: workers claim contiguous strip
// runs (parallel.UniformStripBounds over the bases, a pure function of
// the input), fold each strip's fibers — loaded once into pooled scratch
// — into a private pooled I_n×I_n partial, and the partials combine
// through parallel.ReduceStrips' fixed pairwise tree. The previous
// output-row partition made every worker reload EVERY fiber and keep its
// row slab, duplicating the fiber loads per worker (ns/op and allocs/op
// both grew with the worker count in BENCH_2.json); now each fiber is
// loaded exactly once regardless of workers, and all scratch is pooled.
//
// Determinism: the strip grid and merge tree depend only on the input,
// so results are bit-identical for any worker count. Single-strip inputs
// (fewer than 2×denseGramStripGrain nonzero fibers) take the undivided
// serial path, bit-identical to the pre-strip implementation.
func ModeGramDenseWorkers(d *Dense, n, workers int) *mat.Matrix {
	rows := d.Shape[n]
	g := mat.New(rows, rows)
	shape := d.Shape
	total := shape.NumElements()
	if total == 0 || rows == 0 {
		return g
	}
	inner := 1
	for k := n + 1; k < shape.Order(); k++ {
		inner *= shape[k]
	}
	numFibers := total / rows

	// Hoisted phase: mark nonzero fibers once (disjoint writes).
	nzMark := make([]bool, numFibers)
	parallel.ForGrain(numFibers, workers, parallel.AutoGrain(float64(rows)), func(lo, hi int) {
		q, r := lo/inner, lo%inner
		base := q*inner*rows + r
		for f := lo; f < hi; f++ {
			zero := true
			for i := 0; i < rows; i++ {
				if d.Data[base+i*inner] != 0 {
					zero = false
					break
				}
			}
			nzMark[f] = !zero
			r++
			base++
			if r == inner {
				r = 0
				base += inner * (rows - 1)
			}
		}
	})
	bases := make([]int, 0, numFibers)
	{
		base, r := 0, 0
		for f := 0; f < numFibers; f++ {
			if nzMark[f] {
				bases = append(bases, base)
			}
			r++
			base++
			if r == inner {
				r = 0
				base += inner * (rows - 1)
			}
		}
	}
	if len(bases) == 0 {
		return g
	}

	// Accumulation phase: strip the nonzero-fiber list, one private
	// partial per strip, fixed-tree merge.
	strips := parallel.UniformStripBounds(len(bases), denseGramStripGrain, maxGramStrips)
	if len(strips) <= 2 {
		p := gramScratchGet(0, rows)
		denseGramAccumulate(g.Data, d.Data, bases, p.fibre, inner, rows, 0, len(bases))
		gramScratchPut(p)
		return g
	}
	out := parallel.ReduceStrips(strips, workers,
		func(int) *gramScratch { return gramScratchGet(rows, rows) },
		func(p *gramScratch, _, s0, s1 int) {
			denseGramAccumulate(p.gram, d.Data, bases, p.fibre, inner, rows, s0, s1)
		},
		func(into, from *gramScratch) *gramScratch {
			for i, v := range from.gram {
				into.gram[i] += v
			}
			return into
		},
		gramScratchPut,
	)
	copy(g.Data, out.gram)
	gramScratchPut(out)
	return g
}

// denseGramStripGrain is the minimum nonzero fibers per reduction strip
// of ModeGramDenseWorkers. A package constant (not AutoGrain): the strip
// grid feeds a floating-point merge tree and must be a pure function of
// the input.
const denseGramStripGrain = 256

// denseGramAccumulate folds fibers bases[s0:s1] into the rows×rows Gram
// accumulator gm, loading each fiber once into the scratch slice: bases
// ascending, rows ascending — the serial floating-point order within a
// strip. Zero fiber elements are skipped exactly as the serial kernel
// skips them, preserving signed-zero behaviour.
func denseGramAccumulate(gm, data []float64, bases []int, fiber []float64, inner, rows, s0, s1 int) {
	for _, base := range bases[s0:s1] {
		for i := 0; i < rows; i++ {
			fiber[i] = data[base+i*inner]
		}
		for a := 0; a < rows; a++ {
			va := fiber[a]
			if va == 0 {
				continue
			}
			row := gm[a*rows:][:rows]
			for b := 0; b < rows; b++ {
				row[b] += va * fiber[b]
			}
		}
	}
}

// LeadingModeVectorsWorkers returns the r leading left singular vectors
// of the mode-n matricization of the sparse tensor, as an I_n × r matrix,
// via the Gram eigendecomposition route, on an explicit worker count (the
// Gram accumulation parallelises; the small I_n × I_n eigendecomposition
// stays serial).
func LeadingModeVectorsWorkers(s *Sparse, n, r, workers int) *mat.Matrix {
	return mat.LeadingEigenvectors(ModeGramWorkers(s, n, workers), r)
}
