package core

import (
	"math"
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
// group holds on each side, so the group projects through the factor rows u
// to
//
//	½·u_p ⊗ ( a₁(p) ⊗ c₂(p)  +  c₁(p) ⊗ a₂(p) ),
//	aκ(p) = Σ_f Xκ(p, f)·u_f,   cκ(p) = Σ_f u_f.
//
// A group that holds every sampled configuration on both sides — all of
// them, in a campaign that lost no simulation — has cκ(p) = sκ, the same row
// sum for every p, and those groups sum to ½·(G₁ ⊗ s₂ + G₂ ⊗ s₁) with
// Gκ = Xκ ×ₙ Uᵀ: two Gram-sized projections, O(nnz(Xκ)) each, where
// DecomposeCtx builds and projects O(P·E₁·E₂) cells (1.6×10⁹ at the paper's
// resolution 70 against ≈3.4×10⁵). Every other group — a lost simulation
// left a hole in it, or the pair has no configuration lists — is summed by
// the first formula into one core-sized residual. Zero-join extends every
// cell over the other side's whole free grid: cκ(p) is the full-grid row
// sum for every group, and there is no residual.
//
// One precondition: no index is stored twice in a sub-tensor (and cells sit
// at listed configurations, where there are lists) — every
// partition.GenerateCtx output. What still builds J is what wants J's
// cells: stitch.Join, and the oracle DecomposeCtx, which at opts.Shards > 1
// is the paper's Algorithm 6. The Result has Join == nil; opts.Span is
// marked factored = 1 and holey_groups, the pivot groups that left the
// Gram-sized path.
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
	coreT, total := FactoredCore(p, opts.ZeroJoin, factors, parts, opts.Span)
	cspan.Set("cells", int64(len(coreT.Data)))
	cspan.Set("factored", 1)
	cspan.Set("holey_groups", int64(total.Holey))
	cdone()
	return &Result{Factors: factors, Core: coreT, Rejected: total.Rejected}, nil
}

// Sampled is the size of the grid a partition was sampled on — what the
// kernel measures a pivot group against, and all a worker process gets of
// the configuration lists. The zero value (a hand-built pair without lists)
// has no intact group.
type Sampled struct {
	Pivots int `json:"pivots"`
	Free1  int `json:"free1"`
	Free2  int `json:"free2"`
}

// SampledOf counts a partition's sampled configurations.
func SampledOf(p *partition.Result) Sampled {
	return Sampled{Pivots: len(p.PivotConfigs), Free1: len(p.Free1Configs), Free2: len(p.Free2Configs)}
}

// Partial is one shard's share of the join-free core; partials Add.
type Partial struct {
	// G1 and G2 are the cells of X₁ and of X₂ in the shard's intact pivot
	// groups (under zero-join: all its cells), projected — Gram-sized.
	G1, G2 *tensor.Dense
	// Residual is the per-group sum over the shard's Holey other groups,
	// over the ranks of the pivots, then side 1's free modes, then side 2's;
	// nil when there is none.
	Residual *tensor.Dense
	Holey    int
	// Rejected counts non-finite values skipped as holes because a
	// sub-tensor carries RejectNonFinite.
	Rejected int
}

// Add returns a + b.
func (a Partial) Add(b Partial) Partial {
	a.G1, a.G2 = a.G1.Add(b.G1), a.G2.Add(b.G2)
	switch {
	case a.Residual == nil:
		a.Residual = b.Residual
	case b.Residual != nil:
		a.Residual = a.Residual.Add(b.Residual)
	}
	a.Holey += b.Holey
	a.Rejected += b.Rejected
	return a
}

// ProjectShard is the join-free kernel for one shard: the pivot groups
// whose key lands in it (key % shards). It is linear in the cells, so the
// shards' partials sum to the whole.
//
// While the sub-tensors cover the sampled grid (every campaign that lost no
// simulation) that is two projections of the shard's cells and nothing
// else. Otherwise the groups are told apart by their cell counts: the
// intact ones are projected, the rest summed per group into
// Partial.Residual (DecomposeFactored has the identity), by ascending key
// and storage order, serially. If either sub-tensor carries RejectNonFinite
// a non-finite value is a hole: skipped, counted in Partial.Rejected, never
// summed.
//
// The two projections share the workers budget (scheduling only — the TTM
// kernels are bit-stable for any worker count).
func ProjectShard(spec stitch.Spec, grid Sampled, x1, x2 *tensor.Sparse, factors []*mat.Matrix, shard, shards, workers int) Partial {
	var part Partial
	// keep1 and keep2 select the cells projected; nil keeps them all.
	var keep1, keep2 func(e int) bool
	// The O(1) test that every pivot group is intact: each sub-tensor stores
	// one cell per (pivot × free) pair of the sampled grid.
	if grid.Pivots == 0 || x1.NNZ() != grid.Pivots*grid.Free1 || x2.NNZ() != grid.Pivots*grid.Free2 {
		keep1, keep2 = part.sumHoleyGroups(spec, grid, x1, x2, factors, shard, shards)
	} else if shards > 1 {
		keep1 = func(e int) bool { return spec.PivotKey(x1.Idx[e*x1.Order():])%shards == shard }
		keep2 = func(e int) bool { return spec.PivotKey(x2.Idx[e*x2.Order():])%shards == shard }
	}
	pair := parallel.SplitWorkers(workers, 2)
	sub1, sub2 := slices.Concat(spec.Pivots, spec.Free1), slices.Concat(spec.Pivots, spec.Free2)
	parallel.Do(workers,
		func() { part.G1 = projectSub(cellsOf(x1, keep1), sub1, factors, pair) },
		func() { part.G2 = projectSub(cellsOf(x2, keep2), sub2, factors, pair) },
	)
	return part
}

// projectSub computes X ×ₙ Uᵀ over all of a sub-tensor's modes (the given
// full-space modes: pivots leading, then its free modes).
func projectSub(x *tensor.Sparse, modes []int, factors []*mat.Matrix, workers int) *tensor.Dense {
	ms := make([]*mat.Matrix, len(modes))
	for i, m := range modes {
		ms[i] = mat.Transpose(factors[m])
	}
	return tensor.MultiTTMSparseWorkers(x, ms, workers)
}

// cellsOf is the cells of x that keep selects, in storage order; a nil keep
// selects them all, so it is the tensor itself.
func cellsOf(x *tensor.Sparse, keep func(e int) bool) *tensor.Sparse {
	if keep == nil {
		return x
	}
	cells := 0
	for e := range x.Vals {
		if keep(e) {
			cells++
		}
	}
	out := tensor.NewSparse(x.Shape)
	out.Reserve(cells)
	for e := range x.Vals {
		if keep(e) {
			out.Append(x.Entry(e))
		}
	}
	return out
}

// sumHoleyGroups is ProjectShard off the covered grid: it counts the shard's
// pivot groups on both sides, sums those that are not intact into
// part.Residual (plain join only) and returns the selection left to
// project — the intact groups' cells, under zero-join every group's, minus
// quarantined values.
func (part *Partial) sumHoleyGroups(spec stitch.Spec, grid Sampled, x1, x2 *tensor.Sparse, factors []*mat.Matrix, shard, shards int) (keep1, keep2 func(e int) bool) {
	// The shard's keys are shard, shard+shards, … below ∏ pivot sizes: at
	// most groups of them (shards, off the wire, may be near MaxInt).
	groups := 1
	for _, m := range spec.Pivots {
		groups *= spec.Shape[m]
	}
	groups = groups/shards + 1
	reject := x1.RejectNonFinite || x2.RejectNonFinite
	sides := [2]*tensor.Sparse{x1, x2}
	frees := [2][]int{spec.Free1, spec.Free2}
	// group is entry e's pivot group within the shard, -1 outside it.
	group := func(x *tensor.Sparse, e int) int {
		if key := spec.PivotKey(x.Idx[e*x.Order():]); key%shards == shard {
			return key / shards
		}
		return -1
	}
	// A quarantined value is a hole.
	hole := func(v float64) bool { return reject && (math.IsNaN(v) || math.IsInf(v, 0)) }

	var n [2][]int
	for si, x := range sides {
		n[si] = make([]int, groups)
		for e, v := range x.Vals {
			switch g := group(x, e); {
			case g < 0:
			case hole(v):
				part.Rejected++
			default:
				n[si][g]++
			}
		}
	}
	// slot numbers the holey groups by ascending key; -1 is a group whose
	// cells are projected (or that has none).
	slot := make([]int, groups)
	for g := range slot {
		slot[g] = -1
		intact := grid.Free1 > 0 && grid.Free2 > 0 && n[0][g] == grid.Free1 && n[1][g] == grid.Free2
		if !spec.ZeroJoin && !intact && n[0][g]+n[1][g] > 0 {
			slot[g] = part.Holey
			part.Holey++
		}
	}
	keep := func(x *tensor.Sparse) func(e int) bool {
		return func(e int) bool { g := group(x, e); return g >= 0 && slot[g] < 0 && !hole(x.Vals[e]) }
	}
	if part.Holey == 0 {
		return keep(x1), keep(x2)
	}

	// u_p ⊗ aκ(p) and cκ(p) of every holey group, one pass per side.
	ranks := [3]tensor.Shape{rankShape(factors, spec.Pivots), rankShape(factors, spec.Free1), rankShape(factors, spec.Free2)}
	np, nf := ranks[0].NumElements(), [2]int{ranks[1].NumElements(), ranks[2].NumElements()}
	var ua, c [2][]float64
	for si, x := range sides {
		ua[si], c[si] = make([]float64, part.Holey*np*nf[si]), make([]float64, part.Holey*nf[si])
		modes := slices.Concat(spec.Pivots, frees[si])
		for e, v := range x.Vals {
			if g := group(x, e); g >= 0 && slot[g] >= 0 && !hole(v) {
				idx, s := x.Idx[e*x.Order():(e+1)*x.Order()], slot[g]
				addOuter(ua[si][s*np*nf[si]:(s+1)*np*nf[si]], factors, modes, idx, v)
				addOuter(c[si][s*nf[si]:(s+1)*nf[si]], factors, frees[si], idx[len(spec.Pivots):], 1)
			}
		}
	}
	// Σ_p ½·u_p ⊗ (a₁(p) ⊗ c₂(p) + c₁(p) ⊗ a₂(p)), by ascending key.
	residual := make([]float64, np*nf[0]*nf[1])
	for s := range part.Holey {
		ua1, c1 := ua[0][s*np*nf[0]:], c[0][s*nf[0]:]
		ua2, c2 := ua[1][s*np*nf[1]:], c[1][s*nf[1]:]
		for at := range residual {
			p, i, j := at/nf[1]/nf[0], at/nf[1]%nf[0], at%nf[1]
			residual[at] += (ua1[p*nf[0]+i]*c2[j] + c1[i]*ua2[p*nf[1]+j]) / 2
		}
	}
	part.Residual = tensor.DenseFromSlice(slices.Concat(ranks[0], ranks[1], ranks[2]), residual)
	return keep(x1), keep(x2)
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
	block := len(dst) / len(row)
	for r, v := range row {
		addOuter(dst[r*block:(r+1)*block], factors, modes[1:], coords[1:], coeff*v)
	}
}

// FactoredCore is the driver-side assembly: the shards' partials summed in
// the order given (ascending shard index — the fixed order keeps the float
// sum bitwise stable), then G = ½·(G₁ ⊗ s₂ + G₂ ⊗ s₁) + residual, with
// s₁/s₂ the free-mode row sums — sampled configurations for plain join, full
// grids for zero-join — computed here, like fusion, because they need only
// the factors. It marks span, the decomposition stage's, factored = 1 and
// holey_groups, and returns the summed partial beside the core.
func FactoredCore(p *partition.Result, zeroJoin bool, factors []*mat.Matrix, parts []Partial, span *obs.Span) (*tensor.Dense, Partial) {
	total := parts[0]
	for _, part := range parts[1:] {
		total = total.Add(part)
	}
	cfg := p.Config
	var s1, s2 *tensor.Dense
	if zeroJoin {
		s1 = fullRowSum(factors, cfg.Free1)
		s2 = fullRowSum(factors, cfg.Free2)
	} else {
		s1 = sampledRowSum(factors, cfg.Free1, p.Free1Configs)
		s2 = sampledRowSum(factors, cfg.Free2, p.Free2Configs)
	}
	span.Set("factored", 1)
	span.Set("holey_groups", int64(total.Holey))
	return assembleFactoredCore(cfg, factors, total, s1, s2), total
}

// sampledRowSum accumulates Σ_{config} ⊗_i U(modes_i)(config_i, ·) over the
// sampled free configurations, as a dense tensor over the modes' ranks.
func sampledRowSum(factors []*mat.Matrix, modes []int, configs [][]int) *tensor.Dense {
	shape := rankShape(factors, modes)
	sum := make([]float64, shape.NumElements())
	for _, config := range configs {
		addOuter(sum, factors, modes, config, 1)
	}
	return tensor.DenseFromSlice(shape, sum)
}

// fullRowSum is the zero-join variant: the sum over the full grid
// separates into per-mode factor column sums, whose outer product it
// returns.
func fullRowSum(factors []*mat.Matrix, modes []int) *tensor.Dense {
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
	shape := rankShape(factors, modes)
	out := make([]float64, shape.NumElements())
	addOuter(out, sums, at, make([]int, len(modes)), 1)
	return tensor.DenseFromSlice(shape, out)
}

// assembleFactoredCore builds the original-mode-order core from the two
// projected sub-tensors, the free-mode row sums and the residual, if any:
// G = ½·(G₁ ⊗ s₂ + G₂ ⊗ s₁) + residual. The residual's mode order is G₁'s
// followed by s₂'s, so its cell is found from theirs.
func assembleFactoredCore(cfg partition.Config, factors []*mat.Matrix, total Partial, s1, s2 *tensor.Dense) *tensor.Dense {
	coreShape := make(tensor.Shape, len(factors))
	for m, f := range factors {
		coreShape[m] = f.Cols
	}
	out := make([]float64, coreShape.NumElements())
	idx := make([]int, len(factors))
	// at is the current cell's position in a tensor over the given modes' ranks.
	at := func(modes []int) int {
		lin := 0
		for _, m := range modes {
			lin = lin*coreShape[m] + idx[m]
		}
		return lin
	}
	sub1, sub2 := slices.Concat(cfg.Pivots, cfg.Free1), slices.Concat(cfg.Pivots, cfg.Free2)
	for lin := range out {
		coreShape.MultiIndex(lin, idx)
		at1, at2 := at(sub1), at(cfg.Free2)
		v := total.G1.Data[at1]*s2.Data[at2] + total.G2.Data[at(sub2)]*s1.Data[at(cfg.Free1)]
		out[lin] = v / 2
		if total.Residual != nil {
			out[lin] += total.Residual.Data[at1*len(s2.Data)+at2]
		}
	}
	return tensor.DenseFromSlice(coreShape, out)
}
