package tucker

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Randomized entry sketching (the MACH/PARCUBE-style fast path): each
// stored cell is kept with probability proportional to its magnitude
// (clamped to 1) and scaled by the inverse of that probability, making
// the sketch an unbiased estimator of the tensor while cutting the nnz
// every downstream kernel pays for.
//
// The keep decision is COUNTER-BASED: a splitmix64 hash of the cell's
// linear index under the sketch seed (the same discipline as
// internal/faults), never a stateful generator. A *rand.Rand would tie
// every decision to the traversal order and consumption count, so the
// sketch could not be computed in parallel or reproduced from the seed
// alone; the hash makes keep/scale a pure function of (seed, cell), which
// is what lets the mask pass fan out over any worker count and still
// produce the identical sketch — the whole package stays inside the
// repo's bit-stability contract (DESIGN.md §12).

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

// SketchOptions configures sketched decompositions.
type SketchOptions struct {
	// KeepFrac is the expected fraction of cells retained, in (0, 1].
	// KeepFrac == 1 short-circuits SketchedHOSVD/SketchedHOOI to the plain
	// decomposition (bit-identical to calling it directly).
	KeepFrac float64
	// Seed drives the per-cell keep decisions. The sketch is a pure
	// function of (tensor, KeepFrac, Seed) — identical for any worker
	// count and across runs.
	Seed int64
	// Workers is the worker-pool size for the sketch passes (0 selects the
	// parallel package default, 1 forces serial). Results are bit-identical
	// for any value.
	Workers int
	// Span, when non-nil, receives a "sketch" child span carrying the
	// kept/dropped/saturated counters and the scale histogram — all
	// deterministic. SketchedHOSVD/SketchedHOOI
	// additionally pass it through to the decomposition.
	Span *obs.Span
}

// SketchStats is the accounting of one sketch pass. Every field is a pure
// function of (tensor, KeepFrac, Seed), so the stats are valid
// deterministic span counters and safe to assert exactly in tests.
type SketchStats struct {
	// InputNNZ is the source tensor's stored-entry count.
	InputNNZ int
	// Kept is the sketch's stored-entry count.
	Kept int
	// Saturated counts entries whose keep probability clamped to 1: they
	// are retained unscaled and contribute no variance. A sketch that is
	// mostly saturated is effectively exact.
	Saturated int
	// ScaleHist is a log₂ histogram of the kept entries'
	// inverse-probability scale factors: bucket k counts scales in
	// [2ᵏ, 2ᵏ⁺¹), with the last bucket open-ended. Saturated entries land
	// in bucket 0 (scale 1).
	ScaleHist [8]int64
}

// Dropped returns the number of entries the sketch discarded.
func (s SketchStats) Dropped() int { return s.InputNNZ - s.Kept }

// span records the stats as deterministic counters on a "sketch" child of
// parent.
func (s SketchStats) span(parent *obs.Span) {
	span := parent.Start("sketch")
	span.Set("input_nnz", int64(s.InputNNZ))
	span.Set("kept", int64(s.Kept))
	span.Set("dropped", int64(s.Dropped()))
	span.Set("saturated", int64(s.Saturated))
	for k, c := range s.ScaleHist {
		if c != 0 {
			span.Set(fmt.Sprintf("scale_pow2_%d", k), c)
		}
	}
	span.Finish()
}

// SketchedHOSVD runs HOSVD on a biased random sketch of the tensor: each
// cell is kept with probability proportional to its magnitude (clamped to
// 1) and scaled by the inverse of that probability, making the sketch an
// unbiased estimator of the tensor. Accuracy degrades gracefully as
// KeepFrac shrinks; KeepFrac == 1 short-circuits to plain HOSVD
// (bit-identical). The returned stats account for the sketch pass.
func SketchedHOSVD(x *tensor.Sparse, ranks []int, opts SketchOptions) (Decomposition, SketchStats, error) {
	if opts.KeepFrac == 1 {
		stats := SketchStats{InputNNZ: x.NNZ(), Kept: x.NNZ()}
		return HOSVDSpan(x, ranks, opts.Workers, opts.Span), stats, nil
	}
	sk, stats, err := Sketch(x, opts)
	if err != nil {
		return Decomposition{}, stats, err
	}
	return HOSVDSpan(sk, ranks, opts.Workers, opts.Span), stats, nil
}

// SketchedHOOI runs HOOICtx on the sketch; hopts.Workers and hopts.Span
// default to the sketch options' values when unset. KeepFrac == 1
// short-circuits to plain HOOI. The sketch pass itself is not
// cancellable; the sweeps after it are.
func SketchedHOOI(ctx context.Context, x *tensor.Sparse, ranks []int, opts SketchOptions, hopts HOOIOptions) (Decomposition, SketchStats, error) {
	if hopts.Workers == 0 {
		hopts.Workers = opts.Workers
	}
	if hopts.Span == nil {
		hopts.Span = opts.Span
	}
	sk, stats := x, SketchStats{InputNNZ: x.NNZ(), Kept: x.NNZ()}
	if opts.KeepFrac != 1 {
		var err error
		if sk, stats, err = Sketch(x, opts); err != nil {
			return Decomposition{}, stats, err
		}
	}
	dec, err := HOOICtx(ctx, sk, ranks, hopts)
	return dec, stats, err
}

// Sketch returns the biased random sketch itself: cell i is kept when its
// hash coin sketchUnit(seed, linear index) falls below
// pᵢ = min(1, KeepFrac·nnz·|vᵢ|/Σ|v|), and stored as vᵢ/pᵢ.
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
		stats.span(opts.Span)
		return empty(), stats, nil
	}
	totalAbs := x.AbsSum(opts.Workers)
	if totalAbs == 0 {
		stats.span(opts.Span)
		return empty(), stats, nil
	}

	// Mask pass: each entry's keep/scale decision is a pure function of
	// (seed, cell, value), so the entry range partitions freely — every
	// worker computes identical per-entry results.
	o := x.Order()
	budget := opts.KeepFrac * float64(nnz)
	keep := make([]bool, nnz)
	scaled := make([]float64, nnz)
	var saturated atomic.Int64
	var hist [8]atomic.Int64
	parallel.ForGrain(nnz, opts.Workers, parallel.AutoGrain(8*float64(o)), func(lo, hi int) {
		var sat int64
		var h [8]int64
		for e := lo; e < hi; e++ {
			v := x.Vals[e]
			p := budget * math.Abs(v) / totalAbs
			if p >= 1 {
				p = 1
				sat++
			}
			lin := uint64(x.Shape.LinearIndex(x.Idx[e*o : (e+1)*o]))
			if sketchUnit(opts.Seed, lin) < p {
				keep[e] = true
				scaled[e] = v / p
				b := int(math.Log2(1 / p))
				if b > 7 {
					b = 7
				}
				h[b]++
			}
		}
		saturated.Add(sat)
		for k, c := range h {
			if c != 0 {
				hist[k].Add(c)
			}
		}
	})
	out := x.SelectScaled(keep, scaled, opts.Workers)
	stats.Kept = out.NNZ()
	stats.Saturated = int(saturated.Load())
	for k := range stats.ScaleHist {
		stats.ScaleHist[k] = hist[k].Load()
	}
	stats.span(opts.Span)
	return out, stats, nil
}
