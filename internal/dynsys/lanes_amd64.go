package dynsys

// hasAVX2 reports whether this CPU and its OS run AVX2 code: the probe
// behind avx2 (cpuid_amd64.s).
func hasAVX2() bool

// laneSteps advances all four lanes of k.y by steps RK4 steps, each lane
// with exactly the operations DoublePendulum.cells performs, math.Sincos's
// included. It returns a four-bit mask: bit i is set when every
// trigonometric argument of lane i and its final θ₁, θ₂ stayed finite and
// below 2²⁹ in magnitude — the range where Sincos needs neither trigReduce
// nor a special case. A lane with its bit clear holds garbage. Only a CPU
// that hasAVX2 may call it (lanes_amd64.s).
//
//go:noescape
func laneSteps(k *laneState, steps int) (inDomain int)
