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
			fiber := model.TimeFiber(fibers[i].ParamIdx, t)
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
