package tensor

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/mat"
	"repro/internal/parallel"
)

// Sparse Grams over fibre runs.
//
// An ensemble tensor is a set of time fibres, and the code that fills one
// stores each fibre's cells one after another: partition emits a
// simulation's cells together, and so does the baselines' encode. ModeGramWorkers reads that
// layout off the storage instead of sorting cells back into matricization
// columns:
//
//  1. One pass over Idx finds the mode τ along which consecutive cells most
//     often differ in that mode alone (findRuns).
//  2. A run is a maximal stretch of storage whose cells agree on every
//     index except τ and never repeat a τ index: a piece of one τ fibre.
//  3. For the Gram of mode n, runs are grouped by their indices other than
//     n and τ — one integer sort over runs, not cells.
//  4. Each group adds fibre inner products into the Gram: for n ≠ τ, the
//     dot product of each mode-n row's summed runs with every run of its
//     own and later rows lands at their two mode-n indices; for n = τ, a
//     group is one column, and its fibre's outer product is the
//     contribution.
//
// A tensor whose runs are short (under two cells on average) or sparse
// along τ (covering under half of the τ indices that occur, on average)
// has no τ — random storage order does not. Then every cell is its own
// run, groups are matricization columns in ascending order, and a
// column's cells are summed by row, in storage order, before the outer
// product of those row sums is added.
//
// So in every group a row's cells or runs are summed before they are
// multiplied, and a Gram entry's rounding grows with the cells of a row,
// not with their pairs. Every case fills the upper triangle and mirrors
// it at the end, so the result is exactly symmetric.

// stripMinCells is the minimum cells per Gram reduction strip: below it
// the per-strip partial's zeroing and merge outweigh the accumulation. A
// tensor with fewer than 2×stripMinCells cells takes a single strip, the
// undivided serial order. A package constant, not AutoGrain: the grid
// feeds a floating-point merge tree and must be a pure function of the
// input.
const stripMinCells = 2048

// maxGramStrips bounds a reduction grid (and so the partials alive at
// once). 32 strips keep the merge tree 5 deep and leave enough strips to
// balance any realistic worker count.
const maxGramStrips = 32

// gramScratch is one reduction strip's scratch — the partial Gram plus the
// buffers its groups use — or, held for a whole call, the per-cell and
// per-run buffers of findRuns and groupRuns. Strips and calls recycle it
// through gramPool, so steady-state kernel calls allocate nothing per
// strip whatever the worker count, and nothing per cell; every buffer is
// cleared before use, so pool order is irrelevant.
type gramScratch struct {
	buf   []float64 // gram then fibre: one allocation when the pool misses
	gram  []float64 // rows×rows partial Gram
	fibre []float64 // one dense fibre or row, all zero between uses
	idx   []int     // a column's τ indices

	steps []uint8  // findRuns' per-cell steps
	keys  []runKey // groupRuns' sorted runs
}

var gramPool sync.Pool

func gramScratchGet(rows, fibre int) *gramScratch {
	p, _ := gramPool.Get().(*gramScratch)
	if p == nil {
		p = &gramScratch{}
	}
	buf := reuse(&p.buf, rows*rows+fibre)
	p.gram, p.fibre = buf[:rows*rows], buf[rows*rows:]
	return p
}

// reuse sets *b to length n, cleared, reallocating only when too short,
// and returns it.
func reuse[T any](b *[]T, n int) []T {
	if cap(*b) < n {
		*b = make([]T, n)
	}
	*b = (*b)[:n]
	clear(*b)
	return *b
}

func gramScratchPut(p *gramScratch) { gramPool.Put(p) }

// fibreRuns is the run structure of a tensor's storage (see findRuns).
type fibreRuns struct {
	// tau is the run mode, or -1 when there is none and every cell is its
	// own run.
	tau int
	// runs lists the runs in storage order, then a sentinel starting at
	// the cell count: run r is cells [runs[r].start, runs[r+1].start). nil
	// when tau < 0.
	runs []fibreRun
}

// fibreRun is one run: its first cell, and whether its τ indices ascend by
// one from there — then it is a slice of its fibre, read in place.
type fibreRun struct {
	start int
	step  bool
}

func (fr *fibreRuns) numRuns(nnz int) int {
	if fr.tau < 0 {
		return nnz
	}
	return len(fr.runs) - 1
}

// bounds returns run r's cell range.
func (fr *fibreRuns) bounds(r int) (int, int) {
	if fr.tau < 0 {
		return r, r + 1
	}
	return fr.runs[r].start, fr.runs[r+1].start
}

// findRuns finds the tensor's run mode τ and its runs. It is a pure
// function of the storage: one pass counts, for each mode, the
// consecutive cell pairs that differ in that mode alone, and τ is the mode
// with the most (the lowest on a tie). A second pass cuts the runs. There
// is no τ when the runs average under two cells, or cover under half of
// the τ indices that occur: a dot product of two runs costs one run's
// length, and only indices both runs hold are work the cell products it
// replaces would do. Runs sampled on one subset of τ (a pivot fraction
// P < 1) fill that subset, and keep their τ.
func findRuns(s *Sparse, sc *gramScratch) fibreRuns {
	none := fibreRuns{tau: -1}
	o, nnz := s.Order(), s.NNZ()
	if nnz < 2 || o >= stepNone {
		return none
	}
	// step[e] says how cells e-1 and e differ: stepNone, or the one mode
	// they differ in, with stepUp set when its index rises by one.
	idx := s.Idx
	var counts [stepNone]int
	count := counts[:o]
	step := reuse(&sc.steps, nnz)
	step[0] = stepNone
	for e := 1; e < nnz; e++ {
		a, b := idx[(e-1)*o:e*o], idx[e*o:(e+1)*o]
		b = b[:len(a)]
		d, mode := 0, 0
		for k, v := range a {
			if v != b[k] {
				d++
				mode = k
			}
		}
		switch {
		case d != 1:
			step[e] = stepNone
		case b[mode] == a[mode]+1:
			step[e] = uint8(mode) | stepUp
			count[mode]++
		default:
			step[e] = uint8(mode)
			count[mode]++
		}
	}
	tau := 0
	for k, c := range count {
		if c > count[tau] {
			tau = k
		}
	}
	// The fewest runs τ can give: every counted step continuing one. Reject
	// before cutting anything.
	size, fewest := s.Shape[tau], nnz-count[tau]
	if count[tau] == 0 || nnz < 2*fewest {
		return none
	}

	// A run that has only stepped up by one cannot repeat a τ index, so
	// its cells need no look-up; once it steps otherwise, last[t] holds
	// one past the index of the run that last visited τ index t.
	var last []int
	fr := fibreRuns{tau: tau, runs: make([]fibreRun, 1, fewest+1)}
	fr.runs[0].step = true
	for e := 1; e < nnz; e++ {
		r := len(fr.runs) // one past the current run's index
		cur := &fr.runs[r-1]
		switch {
		case step[e]&^stepUp != uint8(tau):
		case cur.step && step[e]&stepUp != 0:
			continue
		default:
			if cur.step {
				cur.step = false
				if last == nil {
					last = make([]int, size)
				}
				t0 := idx[cur.start*o+tau]
				for t := t0; t < t0+e-cur.start; t++ {
					last[t] = r
				}
			}
			if t := idx[e*o+tau]; last[t] != r {
				last[t] = r
				continue
			}
		}
		fr.runs = append(fr.runs, fibreRun{start: e, step: true})
	}
	fr.runs = append(fr.runs, fibreRun{start: nnz})
	runs := len(fr.runs) - 1
	if nnz < 2*runs {
		return none
	}
	if 2*nnz < runs*size { // count the τ indices that occur
		seen, used := make([]bool, size), 0
		for e := tau; e < len(idx); e += o {
			if !seen[idx[e]] {
				seen[idx[e]] = true
				used++
			}
		}
		if 2*nnz < runs*used {
			return none
		}
	}
	return fr
}

// The encoding of findRuns' per-cell steps.
const (
	stepNone = 0x7f // cells differ in no mode or in several
	stepUp   = 0x80 // the one differing index rose by one
)

// runKey is one run in a Gram's grouping, with its mode-n index. Runs sort
// by group key (the run's indices other than n and τ), then by mode-n
// index unless n is τ, then by storage.
type runKey struct {
	key, row, run int
}

// groupRuns sorts the runs into mode-n groups and returns them with the
// group bounds and the reduction grid, a pure function of the storage:
// groups are weighted by cells, cut into at most maxGramStrips strips of at
// least stripMinCells cells.
func groupRuns(s *Sparse, fr *fibreRuns, n int, sc *gramScratch) (keys []runKey, bounds, strips []int) {
	o, shape := s.Order(), s.Shape
	keys = reuse(&sc.keys, fr.numRuns(s.NNZ()))
	sortRows := fr.tau != n
	for r := range keys {
		e, _ := fr.bounds(r)
		at := s.Idx[e*o : (e+1)*o]
		key := 0
		for k := o - 1; k >= 0; k-- {
			if k != n && k != fr.tau {
				key = key*shape[k] + at[k]
			}
		}
		keys[r] = runKey{key: key, row: at[n], run: r}
	}
	slices.SortFunc(keys, func(a, b runKey) int {
		if c := cmp.Compare(a.key, b.key); c != 0 || !sortRows {
			return cmp.Or(c, cmp.Compare(a.run, b.run))
		}
		return cmp.Or(cmp.Compare(a.row, b.row), cmp.Compare(a.run, b.run))
	})
	groups := 1
	for i := 1; i < len(keys); i++ {
		if keys[i].key != keys[i-1].key {
			groups++
		}
	}
	buf := make([]int, 0, 2*groups+1)
	bounds, weights := buf[:0:groups+1], buf[groups+1:groups+1]
	for lo := 0; lo < len(keys); {
		hi, cells := lo, 0
		for ; hi < len(keys) && keys[hi].key == keys[lo].key; hi++ {
			e0, e1 := fr.bounds(keys[hi].run)
			cells += e1 - e0
		}
		bounds = append(bounds, lo)
		weights = append(weights, cells)
		lo = hi
	}
	bounds = append(bounds, len(keys))
	return keys, bounds, parallel.BalancedStripBounds(weights, stripMinCells, maxGramStrips)
}

// ModeGramWorkers computes G = X(n) · X(n)ᵀ (an I_n × I_n matrix) from the
// sparse coordinates over fibre runs (see the top of this file), without
// materialising the matricization or re-sorting its cells. workers <= 0
// selects the package default.
//
// Workers claim contiguous runs of the reduction strips; each strip
// accumulates into a private pooled partial and the partials combine
// through parallel.ReduceStrips' fixed pairwise tree. The grid, the group
// order and the merge tree depend only on the storage, so the result is
// bit-identical for any worker count. A caller may write Idx or Vals
// between calls: nothing about the layout is kept.
func ModeGramWorkers(s *Sparse, n, workers int) *mat.Matrix {
	rows := s.Shape[n]
	g := mat.New(rows, rows)
	if s.NNZ() == 0 {
		return g
	}
	sc := gramScratchGet(0, 0)
	defer gramScratchPut(sc)
	fr := findRuns(s, sc)
	keys, bounds, strips := groupRuns(s, &fr, n, sc)
	fibre := rows
	if fr.tau >= 0 {
		fibre = s.Shape[fr.tau]
	}
	out := parallel.ReduceStrips(strips, workers,
		func(int) *gramScratch { return gramScratchGet(rows, fibre) },
		func(p *gramScratch, _, g0, g1 int) {
			for gi := g0; gi < g1; gi++ {
				group := keys[bounds[gi]:bounds[gi+1]]
				switch fr.tau {
				case -1:
					columnRows(p, s, rows, group)
				case n:
					columnOuter(p, s, &fr, group)
				default:
					runDots(p, s, &fr, n, group)
				}
			}
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
	for i := 0; i < rows; i++ {
		for j := i + 1; j < rows; j++ {
			g.Data[j*rows+i] = g.Data[i*rows+j]
		}
	}
	return g
}

// columnRows adds one matricization column of a tensor without τ (group
// runs are single cells, sorted by row): each row's cells summed in
// storage order, then the upper triangle of the row sums' outer product.
func columnRows(p *gramScratch, s *Sparse, rows int, group []runKey) {
	for _, k := range group {
		p.fibre[k.row] += s.Vals[k.run]
	}
	for a, ka := range group {
		fa := p.fibre[ka.row]
		if fa == 0 || a > 0 && ka.row == group[a-1].row {
			continue
		}
		row := p.gram[ka.row*rows:][:rows]
		prev := -1
		for _, kb := range group[a:] {
			if kb.row != prev {
				row[kb.row] += fa * p.fibre[kb.row]
				prev = kb.row
			}
		}
	}
	for _, k := range group {
		p.fibre[k.row] = 0
	}
}

// columnOuter adds one column of the Gram of τ itself: the upper triangle
// of f·fᵀ, f the column's τ fibre (its runs summed). A single run that
// steps by one is f, read in place.
func columnOuter(p *gramScratch, s *Sparse, fr *fibreRuns, group []runKey) {
	o, tau, rows := s.Order(), fr.tau, s.Shape[fr.tau]
	if len(group) == 1 && fr.runs[group[0].run].step {
		e0, e1 := fr.bounds(group[0].run)
		f, lo := s.Vals[e0:e1], s.Idx[e0*o+tau]
		for a, fa := range f {
			if fa == 0 {
				continue
			}
			fb := f[a:]
			row := p.gram[(lo+a)*(rows+1):][:len(fb)]
			for b, v := range fb {
				row[b] += fa * v
			}
		}
		return
	}
	ts := p.idx[:0]
	for _, k := range group {
		e0, e1 := fr.bounds(k.run)
		for e := e0; e < e1; e++ {
			t := s.Idx[e*o+tau]
			p.fibre[t] += s.Vals[e]
			ts = append(ts, t)
		}
	}
	slices.Sort(ts)
	ts = slices.Compact(ts)
	for a, ta := range ts {
		fa := p.fibre[ta]
		if fa == 0 {
			continue
		}
		row := p.gram[ta*rows:][:rows]
		for _, tb := range ts[a:] {
			row[tb] += fa * p.fibre[tb]
		}
	}
	for _, t := range ts {
		p.fibre[t] = 0
	}
	p.idx = ts
}

// runDots adds one group of a mode n ≠ τ: the runs share every index but n
// and τ, sorted by their mode-n index. Each row's runs are summed into one
// dense τ fibre, which is dotted with every run of that row and of the
// later ones, each dot landing at (the row, the run's row): the upper
// triangle.
func runDots(p *gramScratch, s *Sparse, fr *fibreRuns, n int, group []runKey) {
	o, tau, rows := s.Order(), fr.tau, s.Shape[n]
	for lo := 0; lo < len(group); {
		hi := lo + 1
		for hi < len(group) && group[hi].row == group[lo].row {
			hi++
		}
		for _, ka := range group[lo:hi] {
			e0, e1 := fr.bounds(ka.run)
			for e := e0; e < e1; e++ {
				p.fibre[s.Idx[e*o+tau]] += s.Vals[e]
			}
		}
		row := p.gram[group[lo].row*rows:][:rows]
		for _, kb := range group[lo:] {
			b0, b1 := fr.bounds(kb.run)
			vals := s.Vals[b0:b1]
			d := 0.0
			if fr.runs[kb.run].step {
				t0 := s.Idx[b0*o+tau]
				for c, v := range p.fibre[t0 : t0+len(vals)] {
					d += v * vals[c]
				}
			} else {
				for c, v := range vals {
					d += p.fibre[s.Idx[(b0+c)*o+tau]] * v
				}
			}
			row[kb.row] += d
		}
		for _, ka := range group[lo:hi] {
			e0, e1 := fr.bounds(ka.run)
			for e := e0; e < e1; e++ {
				p.fibre[s.Idx[e*o+tau]] = 0
			}
		}
		lo = hi
	}
}
