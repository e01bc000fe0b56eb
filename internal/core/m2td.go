// Package core implements Multi-Task Tensor Decomposition (M2TD), the
// paper's primary contribution (Section VI): obtaining a Tucker
// decomposition of the high-order join tensor J directly from cheap HOSVD
// decompositions of the two low-order PF-partitioned sub-tensors X₁, X₂.
//
// Three fusion strategies are provided for the shared pivot-mode factor
// matrices, matching Algorithms 2–5 of the paper:
//
//   - M2TD-AVG (Algorithm 2): element-wise average of the two pivot factor
//     matrices.
//   - M2TD-CONCAT (Algorithm 3): leading left singular vectors of the
//     column-wise concatenation of the two pivot matricizations. Since the
//     left singular vectors of [A B] are the leading eigenvectors of
//     A·Aᵀ + B·Bᵀ, the combined factor is computed from the sum of the two
//     matricization Gram matrices — an exact reformulation that never
//     materialises the concatenation.
//   - M2TD-SELECT (Algorithms 4–5): each row of the fused factor is taken
//     from whichever side gives that row (entity) more energy (2-norm),
//     preventing low-energy rows from acting as noise.
//
// Non-pivot factors come directly from the owning sub-tensor's HOSVD. The
// core is the JE-stitched join tensor projected through the assembled
// factor matrices, G = J ×₁ U(1)ᵀ ×₂ … ×ₙ U(N)ᵀ — computed from the two
// sub-tensors without building J: DecomposeFactored is the one production
// decomposition (its comment says who still builds J). DecomposeCtx is the
// algorithms as the paper states them, stitch then project — the oracle the
// other packages' tests measure every engine against.
package core

import (
	"context"
	"fmt"

	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/stitch"
	"repro/internal/tensor"
	"repro/internal/tucker"
)

// Method selects the pivot-factor fusion strategy.
type Method string

// The three M2TD variants of Section VI.
const (
	AVG    Method = "M2TD-AVG"
	CONCAT Method = "M2TD-CONCAT"
	SELECT Method = "M2TD-SELECT"
)

// Methods lists all fusion strategies in paper order.
func Methods() []Method { return []Method{AVG, CONCAT, SELECT} }

// Options configures a Decompose call.
type Options struct {
	// Method is the pivot-factor fusion strategy.
	Method Method
	// Ranks holds the per-original-mode target ranks (clipped to mode
	// sizes).
	Ranks []int
	// ZeroJoin selects zero-join JE-stitching for the core-recovery join
	// tensor (Section V-C.2); plain join otherwise.
	ZeroJoin bool
	// Workers is the shared worker-pool size for the decomposition hot
	// path: the X₁/X₂ sub-tensor factor extractions run concurrently
	// (errgroup-style join) and the Gram/TTM kernels inside each fan out.
	// 0 selects the parallel package default (GOMAXPROCS); 1 forces serial
	// execution. Results are bit-identical for any worker count.
	Workers int
	// Shards is D-M2TD's server count (Algorithm 6, Section VI-D): the pivot
	// groups are cut by key % Shards, each shard is stitched and projected
	// (DecomposeCtx) or projected (DecomposeFactored) as one task on the
	// pool, and the partials are summed in ascending shard order. The
	// result is a pure function of it, bit-identical to internal/distnet at
	// equal Shards and equal to one shard's up to that summation order.
	// Values ≤ 1 mean one shard: the unsharded computation, with no fan-out.
	Shards int
	// Span, when non-nil, is the decompose stage span: a decomposition
	// opens one child span per phase (factors, core — and stitch between
	// them in DecomposeCtx), with one sub-span per original mode under
	// factors (pivot modes carry x1/x2 kernel sub-spans). Span structure
	// and counters are deterministic for any Workers value; a nil Span
	// costs one nil check per site.
	Span *obs.Span
}

// Result is an M2TD decomposition of the join tensor: Tucker factors in
// original mode order plus the recovered core.
type Result struct {
	// Factors holds one factor matrix per original tensor mode.
	Factors []*mat.Matrix
	// Core is the recovered core tensor G.
	Core *tensor.Dense
	// Join is the JE-stitched tensor DecomposeCtx recovered the core from;
	// nil from every join-free engine, so from every campaign.
	Join *tensor.Sparse
}

// Reconstruct expands the decomposition to the full tensor space:
// X̃ = G ×₁ U(1) ×₂ … ×ₙ U(N).
func (r *Result) Reconstruct() *tensor.Dense {
	return tensor.TuckerReconstruct(r.Core, r.Factors)
}

// CheckedRanks validates what every M2TD engine requires of its options —
// a known fusion method and one rank per mode of the space — and returns
// the ranks clipped to the mode sizes.
func CheckedRanks(method Method, ranks []int, shape tensor.Shape) ([]int, error) {
	switch method {
	case AVG, CONCAT, SELECT:
	default:
		return nil, fmt.Errorf("core: unknown M2TD method %q", method)
	}
	if len(ranks) != shape.Order() {
		return nil, fmt.Errorf("core: %d ranks for order-%d space", len(ranks), shape.Order())
	}
	return tucker.ClipRanks(shape, ranks), nil
}

// DecomposeCtx is Algorithms 1–5 as the paper states them: decompose the
// two sub-tensors, JE-stitch the whole join, project it through the fused
// factors — at opts.Shards > 1 Algorithm 6's phases: one stitch task per
// shard, the shards concatenated in shard order, one projection per shard,
// summed in ascending order (Table III's split). No campaign runs it — it
// pays O(P·E₁·E₂) cells for what DecomposeFactored gets from
// O(nnz(X₁) + nnz(X₂)) — it is the oracle the join-free engines (core,
// distnet) and the facade are tested against across packages, and what the
// benchmarks time the join-free route against.
// Cancellation is polled between the three phases (sub-decomposition,
// stitching, core recovery); a phase that has started always runs to
// completion — its kernels never observe the context — so cancellation leaves
// no partially assembled factor set or half-stitched join behind.
func DecomposeCtx(ctx context.Context, p *partition.Result, opts Options) (*Result, error) {
	ranks, err := CheckedRanks(opts.Method, opts.Ranks, p.Space.Shape())
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 1: decompose the two low-order sub-tensors. Only the factor
	// matrices are needed; Gram matrices are retained for CONCAT fusion.
	factors := factorsPhase(p, opts, ranks, opts.Span.Start("factors"))

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 2: JE-stitching, one task per shard.
	sspan := opts.Span.Start("stitch")
	sdone := sspan.WithVitals(nil)
	spec, shards := stitch.NewSpec(p, opts.ZeroJoin), max(opts.Shards, 1)
	joins := make([]*tensor.Sparse, shards)
	eachShard(shards, opts.Workers, func(s, _ int) { joins[s] = spec.Shard(p.Sub1.Tensor, p.Sub2.Tensor, s, shards) })
	j := mergeJoin(spec.Shape, joins)
	if opts.ZeroJoin {
		sspan.Set("zero_join", 1)
	}
	sspan.Set("join_nnz", int64(j.NNZ()))
	sdone()

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Phase 3: recover the core through the assembled factors, one
	// projection per shard, summed in ascending shard order — the fixed
	// order keeps the float sum bitwise stable.
	cspan := opts.Span.Start("core")
	cdone := cspan.WithVitals(map[string]func() int64{"strips": parallel.Strips})
	partials := make([]*tensor.Dense, shards)
	eachShard(shards, opts.Workers, func(s, workers int) { partials[s] = tucker.CoreFromFactorsWorkers(joins[s], factors, workers) })
	coreT := partials[0]
	for _, partial := range partials[1:] {
		coreT = coreT.Add(partial)
	}
	cspan.Set("cells", int64(len(coreT.Data)))
	cdone()
	return &Result{Factors: factors, Core: coreT, Join: j}, nil
}

// eachShard runs task once per shard on up to workers goroutines, handing
// each its share of the worker budget (scheduling only). One shard is a
// direct call with the whole budget, not a one-task fan-out, so a
// one-shard decomposition is the unsharded one, pool counters included.
func eachShard(shards, workers int, task func(shard, workers int)) {
	if shards == 1 {
		task(0, workers)
		return
	}
	inner := parallel.SplitWorkers(workers, shards)
	tasks := make([]func(), shards)
	for s := range tasks {
		tasks[s] = func() { task(s, inner) }
	}
	parallel.Do(workers, tasks...)
}

// mergeJoin concatenates the stitch shards, in the order given (ascending
// shard index), into exactly-sized storage; one shard is the join itself.
func mergeJoin(shape tensor.Shape, shards []*tensor.Sparse) *tensor.Sparse {
	if len(shards) == 1 {
		return shards[0]
	}
	total := 0
	for _, shard := range shards {
		total += shard.NNZ()
	}
	j := tensor.NewSparse(shape)
	j.Reserve(total)
	for _, shard := range shards {
		j.AppendBlock(shard.Idx, shard.Vals)
	}
	return j
}

// factorsPhase is phase 1 of both routes under its span: the fused factor
// set, with the worker pool's strip count as a gauge.
func factorsPhase(p *partition.Result, opts Options, ranks []int, fspan *obs.Span) []*mat.Matrix {
	fdone := fspan.WithVitals(map[string]func() int64{"strips": parallel.Strips})
	factors := buildFactors(p, opts.Method, ranks, opts.Workers, fspan)
	fdone()
	return factors
}

// buildFactors runs the sub-tensor decompositions and assembles the fused
// factor set in original mode order: pivot factors per the fusion method,
// free factors from the owning sub-tensor's HOSVD.
//
// The X₁ and X₂ decompositions are independent by construction, so every
// per-mode factor extraction — pivot modes (which read both sub-tensors)
// and the free modes of either side — is issued as one task on the shared
// worker pool and joined errgroup-style. Each task writes only its own
// factors[m] slot and every kernel inside is deterministic, so the result
// is bit-identical for any worker count.
//
// Per-mode sub-spans are created serially here, before the pool runs any
// task, so the span tree's child order (pivots, then free1, then free2 —
// each in Config order) is deterministic no matter how the pool schedules
// the tasks. Pivot-mode spans carry one x1/x2 child per sub-tensor kernel.
func buildFactors(p *partition.Result, method Method, ranks []int, workers int, span *obs.Span) []*mat.Matrix {
	cfg := p.Config
	k := len(cfg.Pivots)
	factors := make([]*mat.Matrix, len(ranks))
	tasks := make([]func(), 0, len(ranks))
	// Worker-budget split across the concurrent per-mode tasks; pivot
	// tasks split once more across their x1/x2 pair. Scheduling only —
	// the kernels are bit-stable for any worker count.
	inner := parallel.SplitWorkers(workers, len(ranks))
	pair := parallel.SplitWorkers(inner, 2)
	for i, m := range cfg.Pivots {
		i, m := i, m
		r := ranks[m]
		ms := span.Start(fmt.Sprintf("mode%d", m))
		ms.Set("rank", int64(r))
		ms.Set("pivot", 1)
		c1 := ms.Start("x1")
		c2 := ms.Start("x2")
		tasks = append(tasks, func() {
			defer ms.Finish()
			// CONCAT fuses the matricization Grams, AVG and SELECT the
			// leading vectors; only the pair the method needs is computed.
			var u1, u2, g1, g2 *mat.Matrix
			if method == CONCAT {
				parallel.Do(inner,
					func() { defer c1.Finish(); g1 = tensor.ModeGramWorkers(p.Sub1.Tensor, i, pair) },
					func() { defer c2.Finish(); g2 = tensor.ModeGramWorkers(p.Sub2.Tensor, i, pair) },
				)
			} else {
				parallel.Do(inner,
					func() { defer c1.Finish(); u1 = tensor.LeadingModeVectorsWorkers(p.Sub1.Tensor, i, r, pair) },
					func() { defer c2.Finish(); u2 = tensor.LeadingModeVectorsWorkers(p.Sub2.Tensor, i, r, pair) },
				)
			}
			factors[m] = FusePivot(method, r, u1, g1, u2, g2)
		})
	}
	for i, m := range cfg.Free1 {
		i, m := i, m
		ms := span.Start(fmt.Sprintf("mode%d", m))
		ms.Set("rank", int64(ranks[m]))
		ms.Set("sub", 1)
		tasks = append(tasks, func() {
			defer ms.Finish()
			factors[m] = tensor.LeadingModeVectorsWorkers(p.Sub1.Tensor, k+i, ranks[m], inner)
		})
	}
	for i, m := range cfg.Free2 {
		i, m := i, m
		ms := span.Start(fmt.Sprintf("mode%d", m))
		ms.Set("rank", int64(ranks[m]))
		ms.Set("sub", 2)
		tasks = append(tasks, func() {
			defer ms.Finish()
			factors[m] = tensor.LeadingModeVectorsWorkers(p.Sub2.Tensor, k+i, ranks[m], inner)
		})
	}
	parallel.Do(workers, tasks...)
	return factors
}

// FusePivot fuses one pivot mode's two sub-tensor decompositions into the
// shared factor (Algorithms 2–4): AVG averages the rank-truncated factors
// u1 and u2, CONCAT re-solves the summed matricization Grams g1 + g2 at the
// given rank, SELECT row-selects between u1 and u2. The pair a method does
// not read may be nil.
func FusePivot(method Method, rank int, u1, g1, u2, g2 *mat.Matrix) *mat.Matrix {
	switch method {
	case AVG:
		return mat.Average(u1, u2)
	case CONCAT:
		return mat.LeadingEigenvectors(mat.Add(g1, g2), rank)
	case SELECT:
		return RowSelect(u1, u2)
	}
	panic(fmt.Sprintf("core: unknown M2TD method %q", method))
}

// RowSelect implements Algorithm 5: the fused factor matrix takes each row
// from whichever input matrix gives it the larger 2-norm (energy), i.e.
// from the sub-ensemble that represents that entity more strongly.
func RowSelect(u1, u2 *mat.Matrix) *mat.Matrix {
	if u1.Rows != u2.Rows || u1.Cols != u2.Cols {
		panic(fmt.Sprintf("core: RowSelect shape mismatch %d×%d vs %d×%d", u1.Rows, u1.Cols, u2.Rows, u2.Cols))
	}
	out := mat.New(u1.Rows, u1.Cols)
	for i := 0; i < u1.Rows; i++ {
		if mat.RowNorm(u1, i) >= mat.RowNorm(u2, i) {
			out.SetRow(i, u1.Row(i))
		} else {
			out.SetRow(i, u2.Row(i))
		}
	}
	return out
}
