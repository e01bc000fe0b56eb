package eval

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/ensemble"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/tucker"
)

// Fiber is one sampled ground-truth time fiber: a parameter combination
// and the simulated cell values at every timestamp.
type Fiber struct {
	ParamIdx []int
	Truth    []float64
}

// SampleFibers simulates n distinct uniformly sampled parameter
// combinations and returns their ground-truth time fibers. Sharing one
// fiber sample across every scheme of a comparison removes the sampling
// noise from scheme-to-scheme accuracy differences.
func SampleFibers(space *ensemble.Space, n int, rng *rand.Rand) []Fiber {
	shape := space.Shape()
	nParams := space.NumParams()
	total := 1
	for m := 0; m < nParams; m++ {
		total *= shape[m]
	}
	if n > total {
		n = total
	}
	seen := make(map[int]bool, n)
	fibers := make([]Fiber, 0, n)
	for len(fibers) < n {
		lin := rng.Intn(total)
		if seen[lin] {
			continue
		}
		seen[lin] = true
		idx := make([]int, nParams)
		space.SimIndex(lin, idx)
		fibers = append(fibers, Fiber{ParamIdx: idx})
	}
	space.Reference() // materialise before fan-out
	parallel.For(len(fibers), 0, func(start, end int) {
		var w ensemble.Workspace
		for i := start; i < end; i++ {
			fibers[i].Truth = make([]float64, space.TimeSamples)
			space.SimCellsInto(&w, fibers[i].ParamIdx, fibers[i].Truth)
		}
	})
	return fibers
}

// EstimateFromFibers evaluates a Tucker model on pre-simulated fibers and
// returns the estimated accuracy: FiberStats summed in fiber order.
func EstimateFromFibers(model TuckerModel, fibers []Fiber) (float64, error) {
	errSqs, refSqs, err := FiberStats(model, fibers)
	if err != nil {
		return 0, err
	}
	var errSq, refSq float64
	for i := range errSqs {
		errSq += errSqs[i]
		refSq += refSqs[i]
	}
	if refSq == 0 {
		return 0, fmt.Errorf("eval: sampled reference fibers are all zero")
	}
	return 1 - math.Sqrt(errSq/refSq), nil
}

// RunComparisonEstimated is RunComparison for resolutions where the exact
// pipeline cannot run: M2TD variants use the factored (join-free) core
// recovery and all schemes are scored by shared sampled-fiber accuracy
// estimation. The estimate is a consistent estimator of the exact metric
// and every scheme sees the same fibers, so orderings are directly
// comparable.
func RunComparisonEstimated(cfg Config, sampleSims int) (*Comparison, error) {
	if sampleSims < 1 {
		return nil, fmt.Errorf("eval: sampleSims must be positive")
	}
	space, err := SpaceFor(cfg.System, cfg.Res, cfg.TimeSamples)
	if err != nil {
		return nil, err
	}
	ranks := tucker.UniformRanks(space.Order(), cfg.Rank)

	pcfg := partition.DefaultConfig(space.Order(), cfg.Pivot, PairsFor(cfg.System))
	pcfg.PivotFrac = cfg.PivotFrac
	pcfg.FreeFrac = cfg.FreeFrac
	part, err := partition.Generate(space, pcfg, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		return nil, err
	}
	if cfg.NoiseFrac > 0 {
		noiseRng := rand.New(rand.NewSource(cfg.Seed + 7))
		AddNoise(part.Sub1.Tensor, cfg.NoiseFrac, noiseRng)
		AddNoise(part.Sub2.Tensor, cfg.NoiseFrac, noiseRng)
	}
	budget := part.NumSims

	fibers := SampleFibers(space, sampleSims, rand.New(rand.NewSource(cfg.Seed+100)))

	cmp := &Comparison{Config: cfg}
	for _, method := range core.Methods() {
		res, err := core.DecomposeFactored(part, core.Options{Method: method, Ranks: ranks, ZeroJoin: cfg.ZeroJoin})
		if err != nil {
			return nil, err
		}
		acc, err := EstimateFromFibers(TuckerModel{Core: res.Core, Factors: res.Factors}, fibers)
		if err != nil {
			return nil, err
		}
		cmp.Results = append(cmp.Results, SchemeResult{
			Scheme:     Scheme(method),
			Accuracy:   acc,
			DecompTime: res.SubDecompTime + res.StitchTime + res.CoreTime,
			NumSims:    budget,
			// Effective join size (never materialised).
			EnsembleNNZ: len(part.PivotConfigs) * len(part.Free1Configs) * len(part.Free2Configs),
		})
	}

	conventional := []struct {
		scheme Scheme
		sample func() []ensemble.Sim
	}{
		{SchemeRandom, func() []ensemble.Sim {
			return ensemble.RandomSample(space, budget, rand.New(rand.NewSource(cfg.Seed+1)))
		}},
		{SchemeGrid, func() []ensemble.Sim {
			return ensemble.GridSample(space, budget)
		}},
		{SchemeSlice, func() []ensemble.Sim {
			return ensemble.SliceSample(space, budget, rand.New(rand.NewSource(cfg.Seed+2)))
		}},
	}
	for _, c := range conventional {
		sims := c.sample()
		se := ensemble.Encode(space, sims)
		if cfg.NoiseFrac > 0 {
			AddNoise(se.Tensor, cfg.NoiseFrac, rand.New(rand.NewSource(cfg.Seed+8)))
		}
		start := time.Now()
		dec := tucker.HOSVD(se.Tensor, ranks)
		elapsed := time.Since(start)
		acc, err := EstimateFromFibers(TuckerModel{Core: dec.Core, Factors: dec.Factors}, fibers)
		if err != nil {
			return nil, err
		}
		cmp.Results = append(cmp.Results, SchemeResult{
			Scheme:      c.scheme,
			Accuracy:    acc,
			DecompTime:  elapsed,
			NumSims:     len(sims),
			EnsembleNNZ: se.Tensor.NNZ(),
		})
	}
	return cmp, nil
}
