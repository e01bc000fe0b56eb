package tensor

import (
	"fmt"
	"math"

	"repro/internal/parallel"
)

// Deterministic entry selection: the storage-layer half of tucker.Sketch,
// whose only caller is cmd/m2tdperf's tucker.sketch_s probe; both go when
// that driver is re-based (ROADMAP, "Re-base the benchmark spine"). The
// tucker package decides per entry whether it is kept and at what value (a
// pure function of seed + cell index); this file materialises that
// decision — in parallel, bit-identically to a serial filter for any
// worker count.

// absSumStripGrain is the minimum entries per AbsSum reduction strip. A
// package constant — NOT AutoGrain — because the strip grid feeds a
// floating-point merge tree and must be a pure function of the input
// (DESIGN.md §11).
const absSumStripGrain = 4096

// absSumMaxStrips bounds the AbsSum reduction grid; the partials are
// single float64s, so the only cost of more strips is merge bookkeeping.
const absSumMaxStrips = 32

// AbsSum returns Σ|v| over the stored entries, reduced over a fixed strip
// grid (a pure function of nnz and package constants) with the partials
// merged through parallel.ReduceStrips' fixed pairwise tree — bit-identical
// for any worker count. Single-strip inputs (nnz < 2×absSumStripGrain)
// keep the undivided serial accumulation order.
func (s *Sparse) AbsSum(workers int) float64 {
	nnz := s.NNZ()
	if nnz == 0 {
		return 0
	}
	bounds := parallel.UniformStripBounds(nnz, absSumStripGrain, absSumMaxStrips)
	sum := parallel.ReduceStrips(bounds, workers,
		func(int) *float64 { return new(float64) },
		func(p *float64, _, lo, hi int) {
			var t float64
			for _, v := range s.Vals[lo:hi] {
				t += math.Abs(v)
			}
			*p = t
		},
		func(into, from *float64) *float64 { *into += *from; return into },
		nil,
	)
	return *sum
}

// SelectScaled returns a new tensor over the same shape containing exactly
// the entries e with keep[e], valued scaled[e], in storage order. The
// output is identical to a serial keep-filter loop for any worker count:
// workers partition a fixed strip grid, per-strip kept counts turn into
// exclusive prefix offsets serially, and each strip then copies its kept
// entries into its own disjoint output range.
//
// The output inherits the source's quarantine configuration and
// accounting (RejectNonFinite, Rejected) — a selection is a view of the
// same ingest history, so degraded-density reporting must survive it.
func (s *Sparse) SelectScaled(keep []bool, scaled []float64, workers int) *Sparse {
	nnz := s.NNZ()
	if len(keep) != nnz || len(scaled) != nnz {
		panic(fmt.Sprintf("tensor: SelectScaled mask/value length %d/%d != nnz %d", len(keep), len(scaled), nnz))
	}
	o := s.Order()
	out := NewSparse(s.Shape)
	out.RejectNonFinite = s.RejectNonFinite
	out.Rejected = s.Rejected
	if nnz == 0 {
		return out
	}

	// Strip grid for the count/fill passes. Selection output is pure
	// integer bookkeeping plus copies — no floating-point reduction — so
	// the grid affects scheduling only; it is fixed anyway so the prefix
	// offsets are computed once, not per worker count.
	bounds := parallel.UniformStripBounds(nnz, selectStripGrain, selectMaxStrips)
	strips := len(bounds) - 1
	counts := make([]int, strips)
	parallel.For(strips, workers, func(s0, s1 int) {
		for st := s0; st < s1; st++ {
			c := 0
			for _, k := range keep[bounds[st]:bounds[st+1]] {
				if k {
					c++
				}
			}
			counts[st] = c
		}
	})
	offsets := make([]int, strips+1)
	for st := 0; st < strips; st++ {
		offsets[st+1] = offsets[st] + counts[st]
	}
	kept := offsets[strips]
	if kept == 0 {
		// Nothing survived; every kernel returns early on an empty tensor.
		return out
	}
	out.Idx = make([]int, kept*o)
	out.Vals = make([]float64, kept)
	parallel.For(strips, workers, func(s0, s1 int) {
		for st := s0; st < s1; st++ {
			pos := offsets[st]
			for e := bounds[st]; e < bounds[st+1]; e++ {
				if !keep[e] {
					continue
				}
				copy(out.Idx[pos*o:(pos+1)*o], s.Idx[e*o:(e+1)*o])
				out.Vals[pos] = scaled[e]
				pos++
			}
		}
	})
	return out
}

// selectStripGrain / selectMaxStrips fix the SelectScaled strip grid.
const (
	selectStripGrain = 4096
	selectMaxStrips  = 32
)
