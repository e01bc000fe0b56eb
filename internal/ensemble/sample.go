package ensemble

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/tensor"
)

// Sim identifies one simulation by its parameter grid indices.
type Sim []int

// key returns a canonical map key for deduplication.
func (m Sim) key(res int) int {
	k := 0
	for _, i := range m {
		k = k*res + i
	}
	return k
}

// RandomSample selects budget distinct simulations uniformly at random
// from the full parameter space — the paper's RANDOM scheme and the
// baseline every other scheme is compared against.
func RandomSample(s *Space, budget int, rng *rand.Rand) []Sim {
	total := s.TotalSims()
	if budget > total {
		budget = total
	}
	nParams := s.NumParams()
	seen := make(map[int]bool, budget)
	sims := make([]Sim, 0, budget)
	for len(sims) < budget {
		idx := make(Sim, nParams)
		for k := range idx {
			idx[k] = rng.Intn(s.Res)
		}
		k := idx.key(s.Res)
		if seen[k] {
			continue
		}
		seen[k] = true
		sims = append(sims, idx)
	}
	return sims
}

// GridSample selects simulations on a regular sub-grid: the largest g with
// g^N ≤ budget evenly spaced values per parameter — the paper's GRID
// scheme.
func GridSample(s *Space, budget int) []Sim {
	nParams := s.NumParams()
	g := int(math.Floor(math.Pow(float64(budget), 1/float64(nParams)) + 1e-9))
	if g < 1 {
		g = 1
	}
	if g > s.Res {
		g = s.Res
	}
	// g evenly spaced grid positions per mode.
	positions := make([]int, g)
	for i := 0; i < g; i++ {
		if g == 1 {
			positions[i] = s.Res / 2
		} else {
			positions[i] = i * (s.Res - 1) / (g - 1)
		}
	}
	count := 1
	for i := 0; i < nParams; i++ {
		count *= g
	}
	sims := make([]Sim, 0, count)
	idx := make([]int, nParams)
	var walk func(mode int)
	walk = func(mode int) {
		if mode == nParams {
			sim := make(Sim, nParams)
			for k, pos := range idx {
				sim[k] = positions[pos]
			}
			sims = append(sims, sim)
			return
		}
		for i := 0; i < g; i++ {
			idx[mode] = i
			walk(mode + 1)
		}
	}
	walk(0)
	return sims
}

// SliceSample selects full two-dimensional slices through the parameter
// space — the paper's SLICE scheme. Each slice varies one random pair of
// parameters over their full grids while fixing the remaining parameters
// at random values; slices are added until the budget is exhausted (the
// final slice is truncated at random).
func SliceSample(s *Space, budget int, rng *rand.Rand) []Sim {
	total := s.TotalSims()
	if budget > total {
		budget = total
	}
	nParams := s.NumParams()
	if nParams < 2 {
		return RandomSample(s, budget, rng)
	}
	seen := make(map[int]bool, budget)
	sims := make([]Sim, 0, budget)
	for len(sims) < budget {
		// Choose the two free modes and fix the rest.
		a := rng.Intn(nParams)
		b := rng.Intn(nParams - 1)
		if b >= a {
			b++
		}
		fixed := make(Sim, nParams)
		for k := range fixed {
			fixed[k] = rng.Intn(s.Res)
		}
		// Visit the slice in random order so truncation keeps coverage even.
		cells := rng.Perm(s.Res * s.Res)
		for _, c := range cells {
			if len(sims) >= budget {
				break
			}
			idx := make(Sim, nParams)
			copy(idx, fixed)
			idx[a] = c % s.Res
			idx[b] = c / s.Res
			k := idx.key(s.Res)
			if seen[k] {
				continue
			}
			seen[k] = true
			sims = append(sims, idx)
		}
	}
	return sims
}

// LatinHypercubeSample selects simulations by Latin hypercube design — the
// classic space-filling scheme from the experiment-design literature the
// paper's related work builds on (its references [9], [10], [15]): the
// budget is split into strata per parameter, and each stratum of each
// parameter is hit exactly once (up to grid rounding). Compared to RANDOM
// it guarantees marginal coverage; compared to GRID it spends the whole
// budget.
func LatinHypercubeSample(s *Space, budget int, rng *rand.Rand) []Sim {
	total := s.TotalSims()
	if budget > total {
		budget = total
	}
	if budget < 1 {
		return nil
	}
	nParams := s.NumParams()
	// One permutation of strata per parameter; stratum i maps to a grid
	// index inside the i-th equal slice of the grid.
	perms := make([][]int, nParams)
	for k := range perms {
		perms[k] = rng.Perm(budget)
	}
	seen := make(map[int]bool, budget)
	sims := make([]Sim, 0, budget)
	for i := 0; i < budget; i++ {
		idx := make(Sim, nParams)
		for k := 0; k < nParams; k++ {
			stratum := perms[k][i]
			// Jittered position within the stratum, rounded to the grid.
			pos := (float64(stratum) + rng.Float64()) / float64(budget)
			g := int(pos * float64(s.Res))
			if g >= s.Res {
				g = s.Res - 1
			}
			idx[k] = g
		}
		key := idx.key(s.Res)
		if seen[key] {
			// Grid rounding can collide; fall back to a fresh random cell.
			for {
				for k := range idx {
					idx[k] = rng.Intn(s.Res)
				}
				key = idx.key(s.Res)
				if !seen[key] {
					break
				}
			}
		}
		seen[key] = true
		sims = append(sims, idx)
	}
	return sims
}

// Sample draws budget simulations by the named conventional scheme —
// "random", "grid", "slice" or "lhs" (also "latin" and "latin-hypercube"),
// case-insensitively — with rng as the scheme's randomness (grid draws
// none). It is the one place a scheme name is looked up.
func Sample(s *Space, scheme string, budget int, rng *rand.Rand) ([]Sim, error) {
	switch strings.ToLower(scheme) {
	case "random":
		return RandomSample(s, budget, rng), nil
	case "grid":
		return GridSample(s, budget), nil
	case "slice":
		return SliceSample(s, budget, rng), nil
	case "lhs", "latin", "latin-hypercube":
		return LatinHypercubeSample(s, budget, rng), nil
	}
	return nil, fmt.Errorf("ensemble: unknown sampling scheme %q (want random, grid, slice or lhs)", scheme)
}

// EncodeCtx runs every selected simulation through SimulateCtx — the
// fan-out the PF-partitioned campaigns use, so it shares their runtime
// (cooperative cancellation with a deterministic drain, an immediate retry
// of a transient failure within faults.Attempts attempts, panic capture that turns a crashed run into a recorded
// failure, optional checkpointing) and their accounting — and stores each
// one's per-timestamp cell values into a sparse ensemble tensor of the full
// 5-mode shape; a non-finite value is dropped and counted (SimStats.Keep).
// A failed simulation's cells are simply absent. The tensor layout depends
// only on sims, never on the worker count.
func EncodeCtx(ctx context.Context, s *Space, sims []Sim, opts SimOptions) (*SparseEnsemble, SimStats, error) {
	values, stats, err := s.SimulateCtx(ctx, "ensemble", len(sims), func(i int) int { return sims[i].key(s.Res) }, opts)
	if err != nil {
		return nil, stats, err
	}

	t := s.TimeSamples
	nParams := s.NumParams()
	sp := &SparseEnsemble{Space: s, Tensor: tensor.NewSparse(s.Shape()), NumSims: len(sims)}
	idx := make([]int, nParams+1)
	for i, sim := range sims {
		if values[i] == nil {
			continue // failed simulation: cells absent
		}
		copy(idx, sim)
		for tt := 0; tt < t; tt++ {
			if v := values[i][tt]; stats.Keep(v) {
				idx[nParams] = tt
				sp.Tensor.Append(idx, v)
			}
		}
	}
	stats.Record(opts.Span, len(sims), sp.Tensor)
	sp.Stats = stats
	return sp, stats, nil
}

// SparseEnsemble couples an encoded ensemble tensor with its simulation
// budget accounting.
type SparseEnsemble struct {
	Space *Space
	// Tensor is the sparse 5-mode ensemble tensor.
	Tensor *tensor.Sparse
	// NumSims is the number of simulation runs spent (budget, including
	// failed runs).
	NumSims int
	// Stats is the accounting of the encode fan-out.
	Stats SimStats
}

// String summarises the ensemble for logs and debugging.
func (se *SparseEnsemble) String() string {
	return fmt.Sprintf("ensemble(%s, %d sims, %d cells, density %.2e)",
		se.Space.Sys.Name(), se.NumSims, se.Tensor.NNZ(), se.Tensor.Density())
}
