package core

import (
	"slices"

	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/stitch"
	"repro/internal/tensor"
)

// DecomposeFactored computes the M2TD decomposition without materialising
// the join tensor — the route of every campaign, in process (here, at any
// opts.Shards) and on worker processes (internal/distnet): ProjectShard per
// shard, FactoredCore driver-side.
//
// J's cells group by pivot configuration p, and within a group
// J(p, f1, f2) = ½·(X₁(p, f1) + X₂(p, f2)) over the free configurations the
// group holds on each side, so through the factor rows u the core is
//
//	G = ½·Σ_p u_p ⊗ ( a₁(p) ⊗ c₂(p)  +  c₁(p) ⊗ a₂(p) ),
//	aκ(p) = Σ_f Xκ(p, f)·u_f,   cκ(p) = Σ_f u_f,
//
// both over the free configurations f that group p holds on side κ — under
// zero-join, which extends every cell over the other side's whole free
// grid, cκ(p) is the full-grid row sum. That is projections of the
// sub-tensors' cells, O(nnz(Xκ)) each, and one contraction over the pivot
// configurations, where DecomposeCtx builds and projects O(P·E₁·E₂) cells
// (1.6×10⁹ at the paper's resolution 70 against ≈3.4×10⁵).
//
// Two preconditions, both of every partition.GenerateCtx output: no index
// is stored twice in a sub-tensor (and cells sit at listed configurations,
// where there are lists), and every value is finite — a non-finite one
// stops at ingest (ensemble.SimStats.Keep) or, off the wire, at the
// worker that loads it (internal/distnet). What still builds J is what
// wants J's cells: stitch.Join, and the oracle DecomposeCtx, which at
// opts.Shards > 1 is the paper's Algorithm 6. The Result has Join == nil;
// opts.Span is marked factored = 1 and holey_groups (Partial.Holey).
func DecomposeFactored(p *partition.Result, opts Options) (*Result, error) {
	ranks, err := CheckedRanks(opts.Method, opts.Ranks, p.Space.Shape())
	if err != nil {
		return nil, err
	}
	factors := factorsPhase(p, opts, ranks, opts.Span.Start("factors"))

	cspan := opts.Span.Start("core")
	cdone := cspan.WithVitals(map[string]func() int64{"strips": parallel.Strips})
	// Phase 3: one ProjectShard per shard — at one shard every cell of both
	// sub-tensors.
	spec, grid, shards := stitch.NewSpec(p, opts.ZeroJoin), SampledOf(p), max(opts.Shards, 1)
	parts := make([]Partial, shards)
	eachShard(shards, opts.Workers, func(s, workers int) {
		parts[s] = ProjectShard(spec, grid, p.Sub1.Tensor, p.Sub2.Tensor, factors, s, shards, workers)
	})
	total := FactoredCore(parts, opts.Span)
	cspan.Set("cells", int64(len(total.G.Data)))
	cspan.Set("factored", 1)
	cspan.Set("holey_groups", int64(total.Holey))
	cdone()
	return &Result{Factors: factors, Core: total.G}, nil
}

// Sampled is the size of the grid a partition was sampled on — what the
// kernel measures a side's cells and a pivot group's against, and all a
// worker process gets of the configuration lists. The zero value (a
// hand-built pair without lists) makes every side a masked one and every
// group with a cell holey.
type Sampled struct {
	Pivots int `json:"pivots"`
	Free1  int `json:"free1"`
	Free2  int `json:"free2"`
}

// SampledOf counts a partition's sampled configurations.
func SampledOf(p *partition.Result) Sampled {
	return Sampled{Pivots: len(p.PivotConfigs), Free1: len(p.Free1Configs), Free2: len(p.Free2Configs)}
}

// Partial is one shard's share of the join-free core; FactoredCore sums
// them.
type Partial struct {
	// G is the shard's pivot groups projected: core-sized, in mode order.
	G *tensor.Dense
	// Holey counts the shard's pivot groups that hold a cell but not every
	// sampled configuration on both sides (plain join only).
	Holey int
}

// ProjectShard is the join-free kernel for one shard: DecomposeFactored's
// formula over the pivot groups whose key lands in it (key % shards). It is
// linear in the groups, so the shards' partials sum to the whole.
//
// aκ of every group is one projection of the shard's cells of Xκ over its
// free modes. cκ is one row for every group under zero-join, on a whole
// side — Pivots × its free grid's size cells: every sampled pivot holds
// the whole grid, an O(1) test — and on a side whose census shows every
// sampled pivot holding the same free configurations; on any other side
// it is one projection of the cells' mask. At one shard the projections
// read the sub-tensors themselves.
//
// The two sides share the workers budget (scheduling only — the TTM
// kernels are bit-stable for any worker count, and the contraction by
// ascending key is serial).
func ProjectShard(spec stitch.Spec, grid Sampled, x1, x2 *tensor.Sparse, factors []*mat.Matrix, shard, shards, workers int) Partial {
	k := len(spec.Pivots)
	xs, frees := [2]*tensor.Sparse{x1, x2}, [2][]int{spec.Free1, spec.Free2}
	var cells [2]*tensor.Sparse
	parallel.Do(workers,
		func() { cells[0] = shardCells(spec, x1, shard, shards) },
		func() { cells[1] = shardCells(spec, x2, shard, shards) },
	)
	var whole [2]bool
	for si, x := range xs {
		whole[si] = grid.Pivots > 0 && x.NNZ() == grid.Pivots*x.Shape[k:].NumElements()
	}
	// Under plain join, unless both sides are whole, each side's census
	// counts every group's cells.
	census := !spec.ZeroJoin && !(whole[0] && whole[1])
	var a, c [2][]float64
	var counts [2][]int
	pair := parallel.SplitWorkers(workers, 2)
	side := func(si int) func() {
		return func() {
			x, free := xs[si], frees[si]
			ms := make([]*mat.Matrix, x.Order())
			for i, m := range free {
				ms[k+i] = mat.Transpose(factors[m])
			}
			a[si] = tensor.MultiTTMSparseWorkers(cells[si], ms, pair).Data
			var held []bool
			if census {
				counts[si], held = takeCensus(x, k, grid.Pivots)
			}
			switch {
			case spec.ZeroJoin || whole[si]:
				c[si] = fullRowSum(factors, free)
			case held != nil:
				c[si] = heldRowSum(factors, free, x.Shape[k:], held)
			default:
				ones := make([]float64, cells[si].NNZ())
				for e := range ones {
					ones[e] = 1
				}
				c[si] = tensor.MultiTTMSparseWorkers(&tensor.Sparse{Shape: x.Shape, Idx: cells[si].Idx, Vals: ones}, ms, pair).Data
			}
		}
	}
	parallel.Do(workers, side(0), side(1))

	// The shard's keys are shard, shard+shards, … below ∏ pivot sizes:
	// counted without adding shards, which off the wire may be near MaxInt.
	pivotShape, groups := x1.Shape[:k], 0
	if keys := pivotShape.NumElements(); shard < keys {
		groups = (keys-shard-1)/shards + 1
	}
	var part Partial
	for g := 0; census && g < groups; g++ {
		key := shard + g*shards
		if n1, n2 := counts[0][key], counts[1][key]; n1+n2 > 0 && (n1 != grid.Free1 || n2 != grid.Free2) {
			part.Holey++
		}
	}

	// G = ½·Σ_p u_p ⊗ (a₁(p) ⊗ c₂(p) + c₁(p) ⊗ a₂(p)) by ascending key,
	// each rank tuple added at its place in the mode-order core.
	coreShape := make(tensor.Shape, len(factors))
	for m, f := range factors {
		coreShape[m] = f.Cols
	}
	strides := coreShape.Strides()
	offsets := func(modes []int) []int {
		shape := rankShape(factors, modes)
		off, idx := make([]int, shape.NumElements()), make([]int, len(modes))
		for lin := range off {
			for i, r := range shape.MultiIndex(lin, idx) {
				off[lin] += r * strides[modes[i]]
			}
		}
		return off
	}
	offP, off1, off2 := offsets(spec.Pivots), offsets(spec.Free1), offsets(spec.Free2)
	// row is group key's n values of v, or all of v where it is one row.
	row := func(v []float64, key, n int) []float64 {
		if len(v) == n {
			return v
		}
		return v[key*n : (key+1)*n]
	}
	n1, n2 := len(off1), len(off2)
	g := make([]float64, coreShape.NumElements())
	up, coords := make([]float64, len(offP)), make([]int, k)
	for grp := range groups {
		key := shard + grp*shards
		clear(up)
		addOuter(up, factors, spec.Pivots, pivotShape.MultiIndex(key, coords), 1)
		a1, a2, c1, c2 := row(a[0], key, n1), row(a[1], key, n2), row(c[0], key, n1), row(c[1], key, n2)
		for i, at1 := range off1 {
			for j, at2 := range off2 {
				v := (a1[i]*c2[j] + c1[i]*a2[j]) / 2
				for r, w := range up {
					g[offP[r]+at1+at2] += w * v
				}
			}
		}
	}
	part.G = tensor.DenseFromSlice(coreShape, g)
	return part
}

// shardCells is the cells of x the shard projects — those whose pivot key
// lands in it. When that is every cell it is x itself, not a copy.
func shardCells(spec stitch.Spec, x *tensor.Sparse, shard, shards int) *tensor.Sparse {
	if shards == 1 {
		return x
	}
	o := x.Order()
	in := func(e int) bool { return spec.PivotKey(x.Idx[e*o:])%shards == shard }
	kept := 0
	for e := range x.Vals {
		if in(e) {
			kept++
		}
	}
	if kept == x.NNZ() {
		return x
	}
	out := tensor.NewSparse(x.Shape)
	out.Reserve(kept)
	for e := range x.Vals {
		if in(e) {
			out.Append(x.Entry(e))
		}
	}
	return out
}

// takeCensus is one pass over x's cells — all of them, so every shard
// decides alike: the cells per pivot key (over x's k leading modes) and,
// if the side is uniform, which configurations of its free grid (the other
// modes) they hold, nil otherwise. A side is uniform when its cells, at
// distinct sampled (pivot, free) pairs, number pivots × the free
// configurations held: every sampled pivot holds those.
func takeCensus(x *tensor.Sparse, k, pivots int) ([]int, []bool) {
	shape, o := x.Shape, x.Order()
	counts, held := make([]int, shape[:k].NumElements()), make([]bool, shape[k:].NumElements())
	cells, configs := 0, 0
	for e, at := 0, 0; e < len(x.Vals); e, at = e+1, at+o {
		key, lin := 0, 0
		for i := 0; i < k; i++ {
			key = key*shape[i] + x.Idx[at+i]
		}
		for i := k; i < o; i++ {
			lin = lin*shape[i] + x.Idx[at+i]
		}
		counts[key]++
		held[lin] = true
		cells++
	}
	for _, h := range held {
		if h {
			configs++
		}
	}
	if pivots == 0 || cells != pivots*configs {
		held = nil
	}
	return counts, held
}

// heldRowSum is cκ of a uniform side: Σ_f u_f over the held free
// configurations, in grid order.
func heldRowSum(factors []*mat.Matrix, free []int, freeShape tensor.Shape, held []bool) []float64 {
	sum, coords := make([]float64, rankShape(factors, free).NumElements()), make([]int, len(free))
	for lin, h := range held {
		if h {
			addOuter(sum, factors, free, freeShape.MultiIndex(lin, coords), 1)
		}
	}
	return sum
}

// fullRowSum is cκ under zero-join: the sum over the full free grid
// separates into per-mode factor column sums, whose outer product it
// returns.
func fullRowSum(factors []*mat.Matrix, modes []int) []float64 {
	// One single-row matrix of column sums per mode, read at row 0.
	sums, at := make([]*mat.Matrix, len(modes)), make([]int, len(modes))
	for i, m := range modes {
		f := factors[m]
		sums[i], at[i] = mat.New(1, f.Cols), i
		for row := 0; row < f.Rows; row++ {
			for r, v := range f.Row(row) {
				sums[i].Data[r] += v
			}
		}
	}
	out := make([]float64, rankShape(factors, modes).NumElements())
	addOuter(out, sums, at, make([]int, len(modes)), 1)
	return out
}

// rankShape is the shape of a tensor over the given modes' ranks.
func rankShape(factors []*mat.Matrix, modes []int) tensor.Shape {
	shape := make(tensor.Shape, len(modes))
	for i, m := range modes {
		shape[i] = factors[m].Cols
	}
	return shape
}

// addOuter adds coeff · ⊗_i U(modes_i)(coords_i, ·) — the outer product of
// one factor row per mode — into dst, a row-major tensor over the modes'
// ranks.
func addOuter(dst []float64, factors []*mat.Matrix, modes, coords []int, coeff float64) {
	if len(modes) == 0 {
		dst[0] += coeff
		return
	}
	row := factors[modes[0]].Row(coords[0])
	if len(modes) == 1 {
		for r, v := range row {
			dst[r] += coeff * v
		}
		return
	}
	block := len(dst) / len(row)
	for r, v := range row {
		addOuter(dst[r*block:(r+1)*block], factors, modes[1:], coords[1:], coeff*v)
	}
}

// FactoredCore is the driver-side assembly: the shards' partials summed in
// the order given (ascending shard index — the fixed order keeps the float
// sum bitwise stable); the sum's G is the core, one shard's its own. It
// marks span, the decomposition stage's, factored = 1 and holey_groups.
func FactoredCore(parts []Partial, span *obs.Span) Partial {
	total := parts[0]
	if len(parts) > 1 {
		sum := slices.Clone(total.G.Data)
		for _, part := range parts[1:] {
			for i, v := range part.G.Data {
				sum[i] += v
			}
			total.Holey += part.Holey
		}
		total.G = tensor.DenseFromSlice(total.G.Shape, sum)
	}
	span.Set("factored", 1)
	span.Set("holey_groups", int64(total.Holey))
	return total
}
