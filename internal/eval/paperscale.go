package eval

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/ensemble"
	"repro/internal/parallel"
)

// Fiber is one sampled ground-truth time fiber: a parameter combination
// and the simulated cell values at every timestamp.
type Fiber struct {
	ParamIdx []int
	Truth    []float64
}

// sampleFibers simulates n distinct uniformly sampled parameter
// combinations and returns their ground-truth time fibers: it draws the
// sample (the rng's only use) and simulates it into one slab off ensemble's
// infallible truth loop, one fiber per draw, in draw order. Sharing one
// sample across every scheme of a comparison (Scorer) removes the sampling
// noise from scheme-to-scheme accuracy differences.
func sampleFibers(space *ensemble.Space, n int, rng *rand.Rand) []Fiber {
	total := space.TotalSims()
	if n > total {
		n = total
	}
	seen := make(map[int]bool, n)
	keys := make([]int, 0, n)
	for len(keys) < n {
		lin := rng.Intn(total)
		if seen[lin] {
			continue
		}
		seen[lin] = true
		keys = append(keys, lin)
	}
	t := space.TimeSamples
	slab := make([]float64, n*t)
	space.TruthFibers(n, func(i int) int { return keys[i] }, slab)
	fibers := make([]Fiber, n)
	for i, lin := range keys {
		idx := make([]int, space.NumParams())
		space.SimIndex(lin, idx)
		fibers[i] = Fiber{ParamIdx: idx, Truth: slab[i*t : (i+1)*t : (i+1)*t]}
	}
	return fibers
}

// FiberStats evaluates a Tucker model on pre-simulated fibers and returns
// the per-fiber squared error and squared reference mass — the sufficient
// statistics of the sampled-fiber accuracy estimate.
func FiberStats(model TuckerModel, fibers []Fiber) (errSq, refSq []float64, err error) {
	if len(fibers) == 0 {
		return nil, nil, fmt.Errorf("eval: no fibers")
	}
	t := len(fibers[0].Truth)
	errSq = make([]float64, len(fibers))
	refSq = make([]float64, len(fibers))
	parallel.For(len(fibers), 0, func(start, end int) {
		for i := start; i < end; i++ {
			fiber := model.TimeFiber(model.GridRows(fibers[i].ParamIdx))
			var e, r float64
			for tt := 0; tt < t; tt++ {
				d := fiber[tt] - fibers[i].Truth[tt]
				e += d * d
				r += fibers[i].Truth[tt] * fibers[i].Truth[tt]
			}
			errSq[i] = e
			refSq[i] = r
		}
	})
	return errSq, refSq, nil
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
