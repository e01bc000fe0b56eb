package parallel

// Deterministic strip reduction.
//
// The Gram kernels' natural work unit is a group of fibres whose cost is
// the group's cell count, not its index span, and their partials
// are I×I matrices whose merges are worth counting and pooling. So the
// CALLER supplies the strip grid (entry-balanced, derived only from the
// input), each strip fills a private partial, and the partials combine
// through a fixed-shape pairwise tree.
//
// The determinism contract, which DESIGN.md §11 states as the reduction
// shape invariant:
//
//   - The strip grid is a pure function of the input (sizes, group
//     bounds, package constants). It must never depend on the worker
//     count, GOMAXPROCS, or timing.
//   - Partials are per-STRIP, not per-worker. A per-worker accumulator
//     folding a contiguous run of strips would make the floating-point
//     association depend on how many workers the run was split across —
//     ((s0+s1)+s2)+s3 with one worker vs (s0+s1)+(s2+s3) with two.
//   - The merge tree is a pure function of the strip count S: pairwise,
//     ascending by strip index, span doubling each level. Workers only
//     decide WHEN a strip's partial is produced, never where it lands in
//     the tree.
//
// Under this contract the result is bit-identical for every worker count
// (including 1) and every fan-out cap, which is exactly what the
// workers ∈ {1, 2, 3, 8} bit-stability suites assert.

// ReduceStrips folds the strip grid `bounds` (S+1 ascending boundaries
// describing S half-open strips [bounds[s], bounds[s+1])) into a single
// accumulator deterministically:
//
//   - makePartial(s) produces the strip's private accumulator (pull it
//     from a pool for zero steady-state allocation),
//   - body(p, s, start, end) folds strip s into p,
//   - merge(into, from) combines two partials and returns the result,
//   - recycle(p), if non-nil, takes each consumed `from` partial back
//     (return it to the pool).
//
// Strips are claimed by workers in contiguous runs (the same static
// split as For), but each strip fills its own partial and the partials
// merge through a fixed pairwise tree ascending by strip index, so the
// result is bit-identical for any worker count. With S == 1 the single
// body call and zero merges make ReduceStrips exactly the serial loop —
// callers use a one-strip grid to preserve undivided serial math for
// small inputs.
//
// The returned accumulator is one produced by makePartial; all others
// have been handed to recycle.
func ReduceStrips[T any](bounds []int, workers int, makePartial func(strip int) T, body func(partial T, strip, start, end int), merge func(into, from T) T, recycle func(T)) T {
	s := len(bounds) - 1
	if s < 1 {
		panic("parallel: ReduceStrips needs at least one strip (len(bounds) >= 2)")
	}
	if s == 1 {
		reduceStripsTotal.Inc()
		p := makePartial(0)
		body(p, 0, bounds[0], bounds[1])
		return p
	}
	partials := make([]T, s)
	For(s, workers, func(cs, ce int) {
		for c := cs; c < ce; c++ {
			reduceStripsTotal.Inc()
			p := makePartial(c)
			body(p, c, bounds[c], bounds[c+1])
			partials[c] = p
		}
	})
	// Fixed-shape pairwise tree: level k merges partials[i] ← partials[i+2ᵏ]
	// for i ≡ 0 (mod 2ᵏ⁺¹). The shape depends only on S.
	var zero T
	for span := 1; span < s; span *= 2 {
		for i := 0; i+span < s; i += 2 * span {
			reduceMergesTotal.Inc()
			partials[i] = merge(partials[i], partials[i+span])
			if recycle != nil {
				recycle(partials[i+span])
			}
			partials[i+span] = zero
		}
	}
	return partials[0]
}

// UniformStripBounds builds a strip grid over [0, n): S = n/grain strips,
// clamped to [1, maxStrips], with boundaries i*n/S. The grid depends only
// on the arguments — callers must pass a grain derived from the input and
// package constants (NOT AutoGrain, a scheduling knob free to be retuned)
// if the grid feeds a floating-point reduction.
func UniformStripBounds(n, grain, maxStrips int) []int {
	if n < 0 {
		n = 0
	}
	if grain < 1 {
		grain = 1
	}
	s := n / grain
	if s > maxStrips {
		s = maxStrips
	}
	if s < 1 {
		s = 1
	}
	bounds := make([]int, s+1)
	for i := 1; i <= s; i++ {
		bounds[i] = i * n / s
	}
	return bounds
}

// BalancedStripBounds builds a strip grid over the group index space
// [0, len(weights)) that balances total WEIGHT rather than group count:
// it cuts S = clamp(total/grain, 1, maxStrips) strips at the positions
// where the weight prefix sum crosses each multiple of total/S. Groups
// are never split. The grid depends only on the weights and the
// arguments, so it is safe for floating-point reductions. The Gram
// kernels use it with group cell counts as weights, which keeps strips
// contiguous in the sorted group order while equalising per-strip work
// even when a few fibers dominate.
func BalancedStripBounds(weights []int, grain, maxStrips int) []int {
	n := len(weights)
	if n == 0 {
		return []int{0, 0}
	}
	if grain < 1 {
		grain = 1
	}
	total := 0
	for _, w := range weights {
		total += w
	}
	s := total / grain
	if s > maxStrips {
		s = maxStrips
	}
	if s > n {
		s = n
	}
	if s < 1 {
		s = 1
	}
	bounds := make([]int, s+1)
	bounds[s] = n
	run, g := 0, 0
	for k := 1; k < s; k++ {
		// Every strip takes at least one group; then extend to the k-th
		// proportional weight share, stopping early if the strips still to
		// come would otherwise be starved of groups.
		run += weights[g]
		g++
		for run*s < k*total && g < n-(s-k) {
			run += weights[g]
			g++
		}
		bounds[k] = g
	}
	return bounds
}
