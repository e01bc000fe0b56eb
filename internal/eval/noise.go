package eval

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// AddNoise perturbs every stored cell with zero-mean Gaussian noise whose
// standard deviation is frac times the tensor's RMS cell value, in place.
// Models measurement / stochastic-realisation uncertainty on simulation
// outputs.
func AddNoise(sp *tensor.Sparse, frac float64, rng *rand.Rand) {
	if frac <= 0 || sp.NNZ() == 0 {
		return
	}
	var sumSq float64
	for _, v := range sp.Vals {
		sumSq += v * v
	}
	rms := sumSq / float64(sp.NNZ())
	if rms == 0 {
		return
	}
	sigma := frac * math.Sqrt(rms)
	for i := range sp.Vals {
		sp.Vals[i] += sigma * rng.NormFloat64()
	}
}
