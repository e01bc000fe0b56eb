package eval

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/parallel"
)

// FiberStats evaluates a Tucker model on pre-simulated fibers and returns
// the per-fiber squared error and squared reference mass — the sufficient
// statistics for both the point estimate and bootstrap resampling.
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

// AccuracyCI is a point estimate with a bootstrap percentile interval.
type AccuracyCI struct {
	Accuracy float64
	// Lo and Hi bound the central 95% of the bootstrap distribution.
	Lo, Hi float64
	// Resamples is the number of bootstrap replicates drawn.
	Resamples int
}

// EstimateAccuracyCI computes the sampled-fiber accuracy estimate together
// with a 95% bootstrap percentile interval (resampling fibers with
// replacement). The interval quantifies the sampling error introduced by
// estimating the metric from a fiber subset — the exact metric on the full
// space has no such error.
func EstimateAccuracyCI(model TuckerModel, fibers []Fiber, resamples int, rng *rand.Rand) (AccuracyCI, error) {
	if resamples < 2 {
		return AccuracyCI{}, fmt.Errorf("eval: need at least 2 bootstrap resamples, got %d", resamples)
	}
	errSq, refSq, err := FiberStats(model, fibers)
	if err != nil {
		return AccuracyCI{}, err
	}
	accOf := func(es, rs []float64, pick []int) (float64, bool) {
		var e, r float64
		if pick == nil {
			for i := range es {
				e += es[i]
				r += rs[i]
			}
		} else {
			for _, i := range pick {
				e += es[i]
				r += rs[i]
			}
		}
		if r == 0 {
			return 0, false
		}
		return 1 - math.Sqrt(e/r), true
	}
	point, ok := accOf(errSq, refSq, nil)
	if !ok {
		return AccuracyCI{}, fmt.Errorf("eval: sampled reference fibers are all zero")
	}
	n := len(fibers)
	boots := make([]float64, 0, resamples)
	pick := make([]int, n)
	for b := 0; b < resamples; b++ {
		for i := range pick {
			pick[i] = rng.Intn(n)
		}
		if acc, ok := accOf(errSq, refSq, pick); ok {
			boots = append(boots, acc)
		}
	}
	if len(boots) < 2 {
		return AccuracyCI{}, fmt.Errorf("eval: bootstrap produced no valid resamples")
	}
	sort.Float64s(boots)
	lo := boots[int(0.025*float64(len(boots)))]
	hiIdx := int(0.975 * float64(len(boots)))
	if hiIdx >= len(boots) {
		hiIdx = len(boots) - 1
	}
	return AccuracyCI{Accuracy: point, Lo: lo, Hi: boots[hiIdx], Resamples: len(boots)}, nil
}
