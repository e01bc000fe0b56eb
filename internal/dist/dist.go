// Package dist is the single home of D-M2TD, the paper's 3-phase
// distributed formulation of Multi-Task Tensor Decomposition (Algorithm 6
// / Section VI-D). The phase bodies are pure functions.
//
// Decompose — factors and Gram-sized objects move, never cells, whatever
// simulations the pair lost (there is no other route to pick):
//
//   - Phase 1 — SubFactor: one (sub-tensor, mode) pair's matricization
//     Gram matrix (needed for CONCAT fusion) and its rank-truncated factor;
//     FuseFactors then fuses the pivot modes driver-side.
//   - Phase 2 — nothing to stitch.
//   - Phase 3 — core.ProjectShard: the pivot groups whose key lands in one
//     shard (key % shards), projected through the fused factors —
//     core.DecomposeFactored's own body, which is shard 0 of 1; groups a
//     lost simulation left a hole in come back as a core-sized residual
//     beside the two projections. core.FactoredCore adds the partials in
//     ascending shard order and assembles G = ½(G₁⊗s₂ + G₂⊗s₁) + residual
//     driver-side.
//
// DecomposeMaterialised — Algorithm 6 as the paper states it, which builds
// J: Table III's subject, and the oracle Decompose is tested against. No
// campaign takes it. Phase 2 is stitch.Spec.Shard, the one JE-stitch kernel
// (stitch.Join is shard 0 of 1), per shard, concatenated by MergeJoin;
// Phase 3 is ShardCore, one join shard projected through the fused factors,
// summed by SumCores — both in ascending shard order.
//
// Two executors run Decompose's tasks and decide nothing but who runs
// which: Decompose, here, on the in-process goroutine pool, and
// internal/distnet on leased worker processes. The shard count is the
// determinism unit — Workers, the paper's server count, is this executor's
// shard count — so both produce the same bits at equal shard counts, at
// any parallelism.
package dist

import (
	"time"

	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/stitch"
	"repro/internal/tensor"
)

// Options configures a distributed decomposition.
type Options struct {
	core.Options
	// Workers is the paper's server count: the shard count and the task
	// parallelism of every phase (capped by the pool). The result is a pure
	// function of it — bit-identical to a distnet run at Shards = Workers.
	// Values below 1 are treated as 1.
	Workers int
}

// SubFactor is Phase 1 for one (sub-tensor, sub-local mode) pair.
func SubFactor(x *tensor.Sparse, mode, rank int) (gram, factor *mat.Matrix) {
	gram = tensor.ModeGram(x, mode)
	return gram, mat.LeadingEigenvectors(gram, rank)
}

// MergeJoin concatenates Phase 2's shards, in the order given (ascending
// shard index), into exactly-sized storage. The shards' quarantine state
// carries over: the flag if any shard has it, and the sum of their counts.
func MergeJoin(shape tensor.Shape, shards []*tensor.Sparse) *tensor.Sparse {
	total := 0
	for _, shard := range shards {
		total += shard.NNZ()
	}
	j := tensor.NewSparse(shape)
	j.Reserve(total)
	for _, shard := range shards {
		j.AppendBlock(shard.Idx, shard.Vals)
		j.RejectNonFinite = j.RejectNonFinite || shard.RejectNonFinite
		j.Rejected += shard.Rejected
	}
	return j
}

// ShardCore is Phase 3 for one join shard: its cells projected through
// the fused factors. An empty shard yields the all-zero partial core.
func ShardCore(shard *tensor.Sparse, factors []*mat.Matrix) *tensor.Dense {
	return tensor.MultiTTMSparse(shard, tensor.TransposeAll(factors))
}

// SumCores adds Phase 3's partial cores in the order given (ascending
// shard index): the fixed order keeps the float sum bitwise stable.
func SumCores(partials []*tensor.Dense) *tensor.Dense {
	total := partials[0]
	for _, partial := range partials[1:] {
		total = total.Add(partial)
	}
	return total
}

// Decompose runs D-M2TD over a PF-partitioned pair of sub-ensembles on the
// in-process pool without building the join: Phase 3 is one
// core.ProjectShard per shard, summed and assembled driver-side
// (core.FactoredCore). The result has no Join and the stage span is marked
// factored = 1. At one shard that is core.DecomposeFactored's computation
// bit for bit; at more, the same decomposition up to the partials'
// summation order.
func Decompose(p *partition.Result, opts Options) (*core.Result, error) {
	ranks, shards, err := checked(p, opts)
	if err != nil {
		return nil, err
	}
	factors, subTime := subDecompose(p, opts.Method, ranks, shards)

	// ---- Phase 3: one projection task per shard ----
	coreClock := obs.StartStopwatch()
	spec, grid := stitch.NewSpec(p, opts.ZeroJoin), core.SampledOf(p)
	parts := make([]core.Partial, shards)
	tasks := make([]func(), shards)
	for s := range tasks {
		tasks[s] = func() {
			parts[s] = core.ProjectShard(spec, grid, p.Sub1.Tensor, p.Sub2.Tensor, factors, s, shards, opts.Options.Workers)
		}
	}
	parallel.Do(shards, tasks...)
	coreT, total := core.FactoredCore(p, opts.ZeroJoin, factors, parts, opts.Span)

	return &core.Result{
		Factors:       factors,
		Core:          coreT,
		Rejected:      total.Rejected,
		SubDecompTime: subTime,
		CoreTime:      coreClock.Elapsed(),
	}, nil
}

// DecomposeMaterialised is D-M2TD as the paper states it (Algorithm 6):
// sub-decomposition, JE-stitching, core recovery from the stitched join —
// dist's analogue of core.DecomposeCtx. Table III calls it directly: its
// phase split is the cost of building J. At one shard it is
// core.DecomposeCtx's computation bit for bit; at more, the same
// decomposition up to Phase 3's summation order.
func DecomposeMaterialised(p *partition.Result, opts Options) (*core.Result, error) {
	ranks, shards, err := checked(p, opts)
	if err != nil {
		return nil, err
	}
	factors, subTime := subDecompose(p, opts.Method, ranks, shards)

	// ---- Phase 2: one stitch task per shard ----
	stitchClock := obs.StartStopwatch()
	spec := stitch.NewSpec(p, opts.ZeroJoin)
	joinShards := make([]*tensor.Sparse, shards)
	tasks := make([]func(), shards)
	for s := range tasks {
		tasks[s] = func() { joinShards[s] = spec.Shard(p.Sub1.Tensor, p.Sub2.Tensor, s, shards) }
	}
	parallel.Do(shards, tasks...)
	j := MergeJoin(spec.Shape, joinShards)
	stitchTime := stitchClock.Elapsed()

	// ---- Phase 3: one projection task per shard ----
	coreClock := obs.StartStopwatch()
	partials := make([]*tensor.Dense, shards)
	for s, shard := range joinShards {
		tasks[s] = func() { partials[s] = ShardCore(shard, factors) }
	}
	parallel.Do(shards, tasks...)
	coreT := SumCores(partials)

	return &core.Result{
		Factors:       factors,
		Core:          coreT,
		Join:          j,
		SubDecompTime: subTime,
		StitchTime:    stitchTime,
		CoreTime:      coreClock.Elapsed(),
	}, nil
}

// checked validates the options both entry points share and returns the
// clipped ranks and the shard count.
func checked(p *partition.Result, opts Options) (ranks []int, shards int, err error) {
	if ranks, err = core.CheckedRanks(opts.Method, opts.Ranks, p.Space.Shape()); err != nil {
		return nil, 0, err
	}
	return ranks, max(opts.Workers, 1), nil
}

// subDecompose is Phase 1 — one SubFactor task per
// (sub-tensor, mode) — and the driver-side fusion.
func subDecompose(p *partition.Result, method core.Method, ranks []int, shards int) ([]*mat.Matrix, time.Duration) {
	clock := obs.StartStopwatch()
	var tasks []func()
	var fs, gs [2][]*mat.Matrix
	for si, sub := range []*partition.SubEnsemble{p.Sub1, p.Sub2} {
		fs[si], gs[si] = make([]*mat.Matrix, len(sub.Modes)), make([]*mat.Matrix, len(sub.Modes))
		for n, m := range sub.Modes {
			tasks = append(tasks, func() { gs[si][n], fs[si][n] = SubFactor(sub.Tensor, n, ranks[m]) })
		}
	}
	parallel.Do(shards, tasks...)
	factors := FuseFactors(method, p.Config, p.Space.Order(), ranks, fs[0], gs[0], fs[1], gs[1])
	return factors, clock.Elapsed()
}
