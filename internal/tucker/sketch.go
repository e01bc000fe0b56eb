package tucker

import (
	"fmt"
	"math"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Randomized entry sketching (the MACH/PARCUBE-style estimator): each
// stored cell is kept with probability proportional to its magnitude
// (clamped to 1) and scaled by the inverse of that probability, an
// unbiased estimator of the tensor at a fraction of its nnz. Nothing in
// the program decomposes a sketch: the one caller is cmd/m2tdperf, which
// times Sketch as its tucker.sketch_s probe, and this file goes when that
// driver is re-based (ROADMAP, "Re-base the benchmark spine").
//
// The keep decision is COUNTER-BASED: a splitmix64 hash of the cell's
// linear index under the sketch seed (the same discipline as
// internal/faults), never a stateful generator, so keep/scale is a pure
// function of (seed, cell) and the mask pass fans out over any worker
// count to the identical sketch (DESIGN.md §12).

// sketchSalt domain-separates sketch hashing from the fault injector's
// use of the same mixer ("M2TDSKCH").
const sketchSalt = 0x4d325444534b4348

// sketchMix is the splitmix64 finaliser (mirrors internal/faults): a
// high-quality 64-bit mixer whose output is a pure function of its input.
func sketchMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sketchUnit maps (seed, cell linear index) to a uniform float in [0, 1):
// the per-cell biased coin. Duplicate entries at one coordinate share the
// coin by construction (the sketch is a cell-level decision).
func sketchUnit(seed int64, lin uint64) float64 {
	return float64(sketchMix(lin^sketchMix(uint64(seed)^sketchSalt))>>11) / (1 << 53)
}

// SketchOptions configures Sketch.
type SketchOptions struct {
	// KeepFrac is the expected fraction of cells retained, in (0, 1].
	KeepFrac float64
	// Seed drives the per-cell keep decisions. The sketch is a pure
	// function of (tensor, KeepFrac, Seed) — identical for any worker
	// count and across runs.
	Seed int64
	// Workers is the worker-pool size for the sketch passes (0 selects the
	// parallel package default, 1 forces serial). Results are bit-identical
	// for any value.
	Workers int
}

// SketchStats is the accounting of one sketch pass, a pure function of
// (tensor, KeepFrac, Seed).
type SketchStats struct {
	// InputNNZ is the source tensor's stored-entry count.
	InputNNZ int
	// Kept is the sketch's stored-entry count.
	Kept int
}

// Sketch returns the biased random sketch of x: cell i is kept when its
// hash coin sketchUnit(seed, linear index) falls below
// pᵢ = min(1, KeepFrac·nnz·|vᵢ|/Σ|v|), and stored as vᵢ/pᵢ. Its only
// caller is cmd/m2tdperf's tucker.sketch_s probe.
//
// Both passes are strip-parallel and bit-identical for any worker count:
// the Σ|v| scan reduces over a fixed strip grid (tensor.AbsSum), and the
// keep/scale mask is written per entry from the hash — no cross-entry
// state — then materialised by tensor.SelectScaled, which also inherits
// the source's quarantine accounting.
func Sketch(x *tensor.Sparse, opts SketchOptions) (*tensor.Sparse, SketchStats, error) {
	if opts.KeepFrac <= 0 || opts.KeepFrac > 1 {
		return nil, SketchStats{}, fmt.Errorf("tucker: KeepFrac %v outside (0, 1]", opts.KeepFrac)
	}
	nnz := x.NNZ()
	stats := SketchStats{InputNNZ: nnz}
	empty := func() *tensor.Sparse {
		out := tensor.NewSparse(x.Shape)
		out.RejectNonFinite = x.RejectNonFinite
		out.Rejected = x.Rejected
		return out
	}
	if nnz == 0 {
		return empty(), stats, nil
	}
	totalAbs := x.AbsSum(opts.Workers)
	if totalAbs == 0 {
		return empty(), stats, nil
	}

	// Mask pass: each entry's keep/scale decision is a pure function of
	// (seed, cell, value), so the entry range partitions freely — every
	// worker computes identical per-entry results.
	o := x.Order()
	budget := opts.KeepFrac * float64(nnz)
	keep := make([]bool, nnz)
	scaled := make([]float64, nnz)
	parallel.ForGrain(nnz, opts.Workers, parallel.AutoGrain(8*float64(o)), func(lo, hi int) {
		for e := lo; e < hi; e++ {
			v := x.Vals[e]
			p := min(budget*math.Abs(v)/totalAbs, 1)
			lin := uint64(x.Shape.LinearIndex(x.Idx[e*o : (e+1)*o]))
			if sketchUnit(opts.Seed, lin) < p {
				keep[e] = true
				scaled[e] = v / p
			}
		}
	})
	out := x.SelectScaled(keep, scaled, opts.Workers)
	stats.Kept = out.NNZ()
	return out, stats, nil
}
