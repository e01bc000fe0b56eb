package core

import (
	"errors"
	"fmt"

	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/stitch"
	"repro/internal/tensor"
)

// DecomposeFactored computes the same M2TD decomposition as DecomposeCtx
// without ever materialising the join tensor, exploiting the product
// structure of PF-partitioned sub-ensembles (every sampled pivot
// configuration carries the same sampled free-configuration set, which
// partition.Generate guarantees).
//
// Under that structure the join tensor factors as
//
//	J(p, f1, f2) = ½·(X₁(p, f1) + X₂(p, f2))   over P × E₁ × E₂,
//
// so its projection through the factor matrices separates:
//
//	G = ½·( G₁ ⊗ s₂  +  G₂ ⊗ s₁ )
//
// where G₁ = X₁ ×ₙ Uᵀ is sub-tensor 1 projected through its own modes'
// fused factors (an O(nnz(X₁)) computation), and s₂ is the sum over
// sampled free-2 configurations of the outer products of their factor
// rows. Zero-join stitching replaces the sampled sums with full-grid sums,
// which further separate into per-mode column sums.
//
// The asymptotic win is what unlocks paper-scale resolutions: DecomposeCtx
// costs O(P·E₁·E₂) to build and project J (1.6×10⁹ cells at the paper's
// resolution 70), DecomposeFactored costs O(nnz(X₁)+nnz(X₂)+E·r^|F|)
// (≈3.4×10⁵ cells at the same resolution).
//
// The returned Result has Join == nil; the stage span (opts.Span) is marked
// factored = 1 once the decomposition succeeded.
func DecomposeFactored(p *partition.Result, opts Options) (*Result, error) {
	ranks, err := CheckedRanks(opts.Method, opts.Ranks, p.Space.Shape())
	if err != nil {
		return nil, err
	}
	if opts.Sketch.KeepFrac != 0 {
		// Sketching drops cells, which destroys the exact one-cell-per-
		// (pivot × free) product structure the factorisation relies on.
		return nil, fmt.Errorf("core: sketching is incompatible with DecomposeFactored (the sketch breaks the P×E product structure)")
	}
	if err := CheckProductStructure(p); err != nil {
		return nil, err
	}

	subClock := Stopwatch()
	factors := factorsPhase(p, opts, ranks, opts.Span.Start("factors"))
	subTime := subClock()

	coreClock := Stopwatch()
	cspan := opts.Span.Start("core")
	cdone := cspan.WithVitals(map[string]func() int64{"strips": parallel.Strips})
	// The engines' Phase 3 at one shard: every cell of both sub-tensors.
	g1, g2 := ProjectShard(stitch.NewSpec(p, opts.ZeroJoin), p.Sub1.Tensor, p.Sub2.Tensor, factors, 0, 1, opts.Workers)
	coreT := FactoredCore(p, opts.ZeroJoin, factors, g1, g2)
	cspan.Set("cells", int64(len(coreT.Data)))
	cspan.Set("factored", 1)
	cdone()
	coreTime := coreClock()
	opts.Span.Set("factored", 1)

	return &Result{
		Factors:       factors,
		Core:          coreT,
		Join:          nil,
		SubDecompTime: subTime,
		CoreTime:      coreTime,
	}, nil
}

// ErrNoProductStructure is wrapped by every CheckProductStructure failure:
// "this partition cannot take the join-free route" — a failed or
// quarantined simulation left a hole in the P×E grid, or the sampled
// configuration lists are missing. M2TDCtx falls back to DecomposeCtx on
// it; the D-M2TD engines to their materialised phases.
var ErrNoProductStructure = errors.New("core: no P×E product structure")

// CheckProductStructure verifies that each sub-ensemble stores exactly one
// cell per (pivot configuration × free configuration) pair — the structure
// the factorisation relies on, and the one test every engine's route
// dispatch asks. Every failure wraps ErrNoProductStructure.
func CheckProductStructure(p *partition.Result) error {
	if len(p.PivotConfigs) == 0 || len(p.Free1Configs) == 0 || len(p.Free2Configs) == 0 {
		return fmt.Errorf("%w: DecomposeFactored requires the sampled configuration lists from partition.Generate", ErrNoProductStructure)
	}
	if want := len(p.PivotConfigs) * len(p.Free1Configs); p.Sub1.Tensor.NNZ() != want {
		return fmt.Errorf("%w: sub-ensemble 1 has %d cells, want %d", ErrNoProductStructure, p.Sub1.Tensor.NNZ(), want)
	}
	if want := len(p.PivotConfigs) * len(p.Free2Configs); p.Sub2.Tensor.NNZ() != want {
		return fmt.Errorf("%w: sub-ensemble 2 has %d cells, want %d", ErrNoProductStructure, p.Sub2.Tensor.NNZ(), want)
	}
	return nil
}

// ProjectShard is Phase 3 of the join-free route for one shard: the cells
// of X₁ and of X₂ whose pivot key lands in the shard (key % shards),
// projected through the fused factors of their own modes. The projection
// is linear in the cells, so the shards' partials sum to G₁ and G₂ —
// dist.SumCores, in ascending shard order. DecomposeFactored is shard 0 of
// 1, dist.Decompose runs one call per shard on goroutines and
// internal/distnet on worker processes; the two projections are
// independent and share the workers budget (scheduling only — the TTM
// kernels are bit-stable for any worker count).
func ProjectShard(spec stitch.Spec, x1, x2 *tensor.Sparse, factors []*mat.Matrix, shard, shards, workers int) (g1, g2 *tensor.Dense) {
	pair := parallel.SplitWorkers(workers, 2)
	parallel.Do(workers,
		func() { g1 = projectSub(spec, x1, spec.Free1, factors, shard, shards, pair) },
		func() { g2 = projectSub(spec, x2, spec.Free2, factors, shard, shards, pair) },
	)
	return g1, g2
}

// projectSub computes X ×ₙ Uᵀ over all of a sub-tensor's modes (pivots
// leading, then its free modes), restricted to one shard's cells.
func projectSub(spec stitch.Spec, x *tensor.Sparse, free []int, factors []*mat.Matrix, shard, shards, workers int) *tensor.Dense {
	ms := make([]*mat.Matrix, 0, x.Order())
	for _, m := range spec.Pivots {
		ms = append(ms, mat.Transpose(factors[m]))
	}
	for _, m := range free {
		ms = append(ms, mat.Transpose(factors[m]))
	}
	return tensor.MultiTTMSparseWorkers(shardCells(spec, x, shard, shards), ms, workers)
}

// shardCells is the part of a sub-tensor one shard projects: the cells
// whose pivot key lands in it, in storage order. One shard holds them all,
// so it is the tensor itself.
func shardCells(spec stitch.Spec, x *tensor.Sparse, shard, shards int) *tensor.Sparse {
	if shards == 1 {
		return x
	}
	o := x.Order()
	in := func(e int) bool { return spec.PivotKey(x.Idx[e*o:])%shards == shard }
	cells := 0
	for e := range x.Vals {
		if in(e) {
			cells++
		}
	}
	out := tensor.NewSparse(x.Shape)
	out.Reserve(cells)
	for e := range x.Vals {
		if in(e) {
			out.Append(x.Entry(e))
		}
	}
	return out
}

// FactoredCore is the join-free route's driver-side assembly,
// G = ½·(G₁ ⊗ s₂ + G₂ ⊗ s₁): g1 and g2 are the two sub-tensors' (summed)
// projections and s₁/s₂ the free-mode row sums — over the sampled
// configurations for plain join, over the full grids for zero-join —
// computed here, like fusion, because they cost E·r^|F| and need only the
// factors.
func FactoredCore(p *partition.Result, zeroJoin bool, factors []*mat.Matrix, g1, g2 *tensor.Dense) *tensor.Dense {
	cfg := p.Config
	var s1, s2 *tensor.Dense
	if zeroJoin {
		s1 = fullRowSum(factors, cfg.Free1)
		s2 = fullRowSum(factors, cfg.Free2)
	} else {
		s1 = sampledRowSum(factors, cfg.Free1, p.Free1Configs)
		s2 = sampledRowSum(factors, cfg.Free2, p.Free2Configs)
	}
	return assembleFactoredCore(cfg, factors, g1, g2, s1, s2)
}

// sampledRowSum accumulates Σ_{config} ⊗_i U(modes_i)(config_i, ·) over the
// sampled free configurations, as a dense tensor over the modes' ranks.
func sampledRowSum(factors []*mat.Matrix, modes []int, configs [][]int) *tensor.Dense {
	shape := make(tensor.Shape, len(modes))
	for i, m := range modes {
		shape[i] = factors[m].Cols
	}
	out := tensor.NewDense(shape)
	idx := make([]int, len(modes))
	for _, config := range configs {
		// Accumulate the outer product of the factor rows for this config.
		var walk func(pos int, coeff float64)
		walk = func(pos int, coeff float64) {
			if pos == len(modes) {
				//lint:allow quarantine -- kernel accumulation into a freshly allocated Dense; factor rows come from quarantined inputs, so coeff is finite
				out.Data[shape.LinearIndex(idx)] += coeff
				return
			}
			row := factors[modes[pos]].Row(config[pos])
			for r, v := range row {
				idx[pos] = r
				walk(pos+1, coeff*v)
			}
		}
		walk(0, 1)
	}
	return out
}

// fullRowSum is the zero-join variant: the sum over the full grid
// separates into per-mode factor column sums, whose outer product it
// returns.
func fullRowSum(factors []*mat.Matrix, modes []int) *tensor.Dense {
	sums := make([][]float64, len(modes))
	shape := make(tensor.Shape, len(modes))
	for i, m := range modes {
		f := factors[m]
		shape[i] = f.Cols
		col := make([]float64, f.Cols)
		for row := 0; row < f.Rows; row++ {
			for r, v := range f.Row(row) {
				col[r] += v
			}
		}
		sums[i] = col
	}
	out := tensor.NewDense(shape)
	idx := make([]int, len(modes))
	var walk func(pos int, coeff float64)
	walk = func(pos int, coeff float64) {
		if pos == len(modes) {
			//lint:allow quarantine -- kernel write into a freshly allocated Dense; per-mode column sums of quarantined factors are finite
			out.Data[shape.LinearIndex(idx)] = coeff
			return
		}
		for r, v := range sums[pos] {
			idx[pos] = r
			walk(pos+1, coeff*v)
		}
	}
	walk(0, 1)
	return out
}

// assembleFactoredCore builds the original-mode-order core from the two
// projected sub-tensors and the free-mode row sums:
// G = ½·(G₁ ⊗ s₂ + G₂ ⊗ s₁).
func assembleFactoredCore(cfg partition.Config, factors []*mat.Matrix, g1, g2, s1, s2 *tensor.Dense) *tensor.Dense {
	coreShape := make(tensor.Shape, len(factors))
	for m, f := range factors {
		coreShape[m] = f.Cols
	}
	out := tensor.NewDense(coreShape)

	k := len(cfg.Pivots)
	idx := make([]int, len(factors))
	sub1Idx := make([]int, k+len(cfg.Free1))
	sub2Idx := make([]int, k+len(cfg.Free2))
	f1Idx := make([]int, len(cfg.Free1))
	f2Idx := make([]int, len(cfg.Free2))
	for lin := range out.Data {
		coreShape.MultiIndex(lin, idx)
		for i, m := range cfg.Pivots {
			sub1Idx[i] = idx[m]
			sub2Idx[i] = idx[m]
		}
		for i, m := range cfg.Free1 {
			sub1Idx[k+i] = idx[m]
			f1Idx[i] = idx[m]
		}
		for i, m := range cfg.Free2 {
			sub2Idx[k+i] = idx[m]
			f2Idx[i] = idx[m]
		}
		v := g1.Data[g1.Shape.LinearIndex(sub1Idx)]*s2.Data[s2.Shape.LinearIndex(f2Idx)] +
			g2.Data[g2.Shape.LinearIndex(sub2Idx)]*s1.Data[s1.Shape.LinearIndex(f1Idx)]
		//lint:allow quarantine -- kernel write into a freshly allocated core tensor; both projections derive from quarantined inputs
		out.Data[lin] = v / 2
	}
	return out
}
