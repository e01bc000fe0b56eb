package dynsys

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ode"
)

// The closure right-hand sides below are the formulation every simulation
// ran through before the simulation kernel: one closure built per call,
// each trigonometric value from its own math.Sin / math.Cos, integrated by
// ode.Trajectory into a [][]float64 the distances were then read off.
// They are the bit-level reference of the kernel and live only here. The
// double pendulum's was rewritten once, with its kernel, when the
// derivative went from four trigonometric values to two (cos 2Δ and
// sin(θ₁−2θ₂) from the sine and cosine of Δ and θ₁); its operation order
// is what the kernel and the lanes kernel follow. The stepping loop under
// ode.Trajectory is pinned separately, against the loops it replaced, by
// ode's TestSamplesBitIdenticalToReferenceLoops.

// closureSystem is a built-in system simulated the old way. It embeds the
// System interface, not the concrete type, so it does not inherit the
// kernel and Cells takes the generic Trajectory route for it.
type closureSystem struct {
	System
	traj func(vals []float64, numSamples int) [][]float64
}

func (c closureSystem) Trajectory(vals []float64, numSamples int) [][]float64 {
	return c.traj(vals, numSamples)
}

func closureDoublePendulum(dp *DoublePendulum) closureSystem {
	return closureSystem{System: dp, traj: func(vals []float64, numSamples int) [][]float64 {
		phi1, phi2, m1, m2 := vals[0], vals[1], vals[2], vals[3]
		l, g := dp.L, dp.G
		deriv := func(t float64, y, dst []float64) {
			th1, w1, th2, w2 := y[0], y[1], y[2], y[3]
			delta := th1 - th2
			sinD, cosD := math.Sin(delta), math.Cos(delta)
			sin1, cos1 := math.Sin(th1), math.Cos(th1)
			cos2D := 1 - 2*sinD*sinD
			sin12 := 2*sinD*cosD*cos1 - cos2D*sin1
			den := 2*m1 + m2 - m2*cos2D
			dst[0] = w1
			dst[1] = (-g*(2*m1+m2)*sin1 -
				m2*g*sin12 -
				2*sinD*m2*(w2*w2*l+w1*w1*l*cosD)) / (l * den)
			dst[2] = w2
			dst[3] = (2 * sinD * (w1*w1*l*(m1+m2) +
				g*(m1+m2)*cos1 +
				w2*w2*l*m2*cosD)) / (l * den)
		}
		y0 := []float64{phi1, 0, phi2, 0}
		full := ode.Trajectory(deriv, 0, dp.Horizon, y0, numSamples, stepsPerSample(dp.Name(), dp.Horizon, numSamples, dp.MaxStep))
		out := make([][]float64, numSamples)
		for i, y := range full {
			out[i] = []float64{y[0], y[2]}
		}
		return out
	}}
}

func closureTriplePendulum(tp *TriplePendulum) closureSystem {
	return closureSystem{System: tp, traj: func(vals []float64, numSamples int) [][]float64 {
		friction := vals[3]
		m := tp.Masses
		g := tp.G
		tail := [3]float64{m[0] + m[1] + m[2], m[1] + m[2], m[2]}
		deriv := func(t float64, y, dst []float64) {
			th := y[0:3]
			w := y[3:6]
			var a [3][4]float64
			for i := 0; i < 3; i++ {
				var b float64
				for j := 0; j < 3; j++ {
					c := tail[i]
					if j > i {
						c = tail[j]
					}
					d := th[i] - th[j]
					a[i][j] = c * math.Cos(d)
					b -= c * math.Sin(d) * w[j] * w[j]
				}
				b -= tail[i] * g * math.Sin(th[i])
				b -= friction * w[i]
				a[i][3] = b
			}
			for k := 0; k < 3; k++ {
				p := k
				for i := k + 1; i < 3; i++ {
					if math.Abs(a[i][k]) > math.Abs(a[p][k]) {
						p = i
					}
				}
				if a[p][k] == 0 {
					dst[0], dst[1], dst[2] = w[0], w[1], w[2]
					dst[3], dst[4], dst[5] = 0, 0, 0
					return
				}
				a[k], a[p] = a[p], a[k]
				inv := 1 / a[k][k]
				for i := k + 1; i < 3; i++ {
					f := a[i][k] * inv
					for j := k; j < 4; j++ {
						a[i][j] -= f * a[k][j]
					}
				}
			}
			acc2 := a[2][3] / a[2][2]
			acc1 := (a[1][3] - a[1][2]*acc2) / a[1][1]
			acc0 := (a[0][3] - a[0][1]*acc1 - a[0][2]*acc2) / a[0][0]
			dst[0], dst[1], dst[2] = w[0], w[1], w[2]
			dst[3], dst[4], dst[5] = acc0, acc1, acc2
		}
		y0 := []float64{vals[0], vals[1], vals[2], 0, 0, 0}
		full := ode.Trajectory(deriv, 0, tp.Horizon, y0, numSamples, stepsPerSample(tp.Name(), tp.Horizon, numSamples, tp.MaxStep))
		out := make([][]float64, numSamples)
		for i, y := range full {
			out[i] = []float64{y[0], y[1], y[2]}
		}
		return out
	}}
}

func closureLorenz(lz *Lorenz) closureSystem {
	return closureSystem{System: lz, traj: func(vals []float64, numSamples int) [][]float64 {
		z0, sigma, beta, rho := vals[0], vals[1], vals[2], vals[3]
		deriv := func(t float64, y, dst []float64) {
			dst[0] = sigma * (y[1] - y[0])
			dst[1] = y[0]*(rho-y[2]) - y[1]
			dst[2] = y[0]*y[1] - beta*y[2]
		}
		y0 := []float64{lz.X0, lz.Y0, z0}
		return ode.Trajectory(deriv, 0, lz.Horizon, y0, numSamples, stepsPerSample(lz.Name(), lz.Horizon, numSamples, lz.MaxStep))
	}}
}

func closureSEIR(sr *SEIR) closureSystem {
	return closureSystem{System: sr, traj: func(vals []float64, numSamples int) [][]float64 {
		beta, sigma, gamma, i0 := vals[0], vals[1], vals[2], vals[3]
		deriv := func(t float64, y, dst []float64) {
			s, e, i := y[0], y[1], y[2]
			inf := beta * s * i
			dst[0] = -inf
			dst[1] = inf - sigma*e
			dst[2] = sigma*e - gamma*i
			dst[3] = gamma * i
		}
		y0 := []float64{1 - i0, 0, i0, 0}
		return ode.Trajectory(deriv, 0, sr.Horizon, y0, numSamples, stepsPerSample(sr.Name(), sr.Horizon, numSamples, sr.MaxStep))
	}}
}

// closureSystems pairs every built-in system with its closure reference,
// in All() order.
func closureSystems() []closureSystem {
	return []closureSystem{
		closureDoublePendulum(NewDoublePendulum()),
		closureTriplePendulum(NewTriplePendulum()),
		closureLorenz(NewLorenz()),
		closureSEIR(NewSEIR()),
	}
}

// CellValues is Cells into a fresh slice with a fresh workspace — the
// allocating form the package exported before the kernel, kept for tests.
func CellValues(sys System, vals []float64, ref [][]float64) []float64 {
	out := make([]float64, len(ref))
	Cells(new(ode.Workspace), sys, vals, ref, out)
	return out
}

// randomVals draws one parameter point uniformly from the system's ranges.
func randomVals(sys System, rng *rand.Rand) []float64 {
	ps := sys.Params()
	vals := make([]float64, len(ps))
	for i, p := range ps {
		vals[i] = p.Min + rng.Float64()*(p.Max-p.Min)
	}
	return vals
}

// sameBits reports the first index at which a and b differ in any bit
// (NaNs with equal payloads compare equal), or -1.
func sameBits(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestCellsKernelBitwiseParity is the frozen-arithmetic contract: for
// every system, the kernel (hoisted RHS value, Sincos, shared workspace,
// distances taken in the sample visit) produces exactly the cells that
// CellValues over the closure formulation produces.
func TestCellsKernelBitwiseParity(t *testing.T) {
	points := 1000
	if testing.Short() {
		points = 50
	}
	for _, ref := range closureSystems() {
		sys := ref.System
		if _, ok := sys.(cellKernel); !ok {
			t.Fatalf("%s has no cells kernel", sys.Name())
		}
		rng := rand.New(rand.NewSource(16))
		var w ode.Workspace // one workspace across systems' points and sample counts
		for _, samples := range []int{8, 12, 24} {
			refTraj := Reference(sys, samples)
			got := make([]float64, samples)
			for p := 0; p < points; p++ {
				vals := randomVals(sys, rng)
				want := CellValues(ref, vals, refTraj)
				Cells(&w, sys, vals, refTraj, got)
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("%s samples=%d vals=%v: cell %d = %x, closure reference %x",
						sys.Name(), samples, vals, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}

// TestTrajectoryMatchesClosureReference: the Trajectory the reference
// ("observed") trajectories come from runs the same right-hand-side values
// and is bit-equal to the closure formulation too.
func TestTrajectoryMatchesClosureReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, ref := range closureSystems() {
		sys := ref.System
		for p := 0; p < 50; p++ {
			vals := randomVals(sys, rng)
			got, want := sys.Trajectory(vals, 12), ref.Trajectory(vals, 12)
			for s := range want {
				if i := sameBits(got[s], want[s]); i >= 0 {
					t.Fatalf("%s vals=%v sample %d component %d differs", sys.Name(), vals, s, i)
				}
			}
		}
	}
}

// TestSincosMatchesSinCos pins the library equivalence the pendulum
// right-hand sides rely on: math.Sincos(x) is bit for bit the pair
// (math.Sin(x), math.Cos(x)). The sweep covers the arguments the
// pendulums visit — angles and angle differences within a few turns, plus
// the whirling regime's larger ones — and the special values. It runs on
// every Go version of the CI matrix, so a toolchain whose Sincos drifts
// from Sin/Cos fails here rather than moving campaign results.
func TestSincosMatchesSinCos(t *testing.T) {
	check := func(x float64) {
		s, c := math.Sincos(x)
		if math.Float64bits(s) != math.Float64bits(math.Sin(x)) || math.Float64bits(c) != math.Float64bits(math.Cos(x)) {
			t.Fatalf("Sincos(%v) = (%x, %x), Sin/Cos = (%x, %x)", x,
				math.Float64bits(s), math.Float64bits(c), math.Float64bits(math.Sin(x)), math.Float64bits(math.Cos(x)))
		}
	}
	for _, x := range []float64{0, math.Copysign(0, -1), math.Pi / 4, math.Pi / 2, math.Pi, 2 * math.Pi,
		1e-300, 1e-8, 1 << 29, 1 << 30, 1e15, 1e300, math.Inf(1), math.Inf(-1)} {
		check(x)
		check(-x)
	}
	n := 2_000_000
	if testing.Short() {
		n = 100_000
	}
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < n; i++ {
		check((rng.Float64()*2 - 1) * 8 * math.Pi) // dense: the librating and slowly whirling range
		check((rng.Float64()*2 - 1) * 1e4)         // sparse: fast whirling
	}
	// A regular grid across octant boundaries, where the two reductions
	// would part ways first.
	for i := -400_000; i <= 400_000; i++ {
		check(float64(i) * (math.Pi / 4) / 1000)
	}
}

// TestDoublePendulumTrigIdentities: the double pendulum's derivative takes
// cos 2Δ and sin(θ₁−2θ₂) from the sine and cosine of Δ = θ₁−θ₂ and θ₁, as
// doublePendulumRHS.deriv and the closure reference evaluate them. Over
// 10⁶ random (θ₁, θ₂) at each of three scales, both stay within
// 4·2⁻⁵²·(1 + |θ₁| + 2|θ₂|) of math.Cos(2θ₁−2θ₂) and math.Sin(θ₁−2θ₂): the
// bound grows with |θ| because the direct form rounds its argument first.
// The rewrite changed rounding, not the physics.
func TestDoublePendulumTrigIdentities(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 50_000
	}
	rng := rand.New(rand.NewSource(21))
	for _, scale := range []float64{0.01, 3, 200} {
		worst := 0.0
		for range n {
			th1, th2 := (rng.Float64()*2-1)*scale, (rng.Float64()*2-1)*scale
			sinD, cosD := math.Sincos(th1 - th2)
			sin1, cos1 := math.Sincos(th1)
			cos2D := 1 - 2*sinD*sinD
			sin12 := 2*sinD*cosD*cos1 - cos2D*sin1
			unit := 0x1p-52 * (1 + math.Abs(th1) + 2*math.Abs(th2))
			for _, e := range []float64{cos2D - math.Cos(2*th1-2*th2), sin12 - math.Sin(th1-2*th2)} {
				if r := math.Abs(e) / unit; r > worst {
					worst = r
				}
			}
			if worst > 4 {
				t.Fatalf("|θ| ≤ %g, θ₁=%v θ₂=%v: cos2D off by %g, sin12 by %g; bound %g",
					scale, th1, th2, cos2D-math.Cos(2*th1-2*th2), sin12-math.Sin(th1-2*th2), 4*unit)
			}
		}
		t.Logf("|θ| ≤ %g: worst error %.3f × 2⁻⁵²·(1 + |θ₁| + 2|θ₂|)", scale, worst)
	}
}

// TestCellsKernelDoesNotAllocate: with a warm workspace, the kernel of
// every system runs at 0 allocs per simulation — no trajectory, no
// closure, no scratch — and so does the lanes entry at 1 to Lanes lanes.
func TestCellsKernelDoesNotAllocate(t *testing.T) {
	for _, sys := range All() {
		ref := Reference(sys, 12)
		vals := ReferenceParams(sys)
		vals[0] += 0.1
		lanes := make([]float64, 0, Lanes*len(vals))
		for i := range Lanes {
			lane := ReferenceParams(sys)
			lane[i%len(lane)] += 0.1 * float64(i+1)
			lanes = append(lanes, lane...)
		}
		dst := make([]float64, Lanes*12)
		var w ode.Workspace
		Cells(&w, sys, vals, ref, dst[:12]) // size the workspace
		if a := testing.AllocsPerRun(20, func() { Cells(&w, sys, vals, ref, dst[:12]) }); a != 0 {
			t.Errorf("%s: cells kernel allocates %v times per simulation, want 0", sys.Name(), a)
		}
		for n := 1; n <= Lanes; n++ {
			p := len(vals)
			if a := testing.AllocsPerRun(20, func() { CellsLanes(&w, sys, lanes[:n*p], ref, dst[:n*12]) }); a != 0 {
				t.Errorf("%s: CellsLanes allocates %v times at %d lanes, want 0", sys.Name(), a, n)
			}
		}
	}
}

// checkLanes fails unless CellsLanes at the given points writes what Cells
// writes at each of them, bit for bit.
func checkLanes(t *testing.T, w *ode.Workspace, sys System, ref [][]float64, points ...[]float64) {
	t.Helper()
	n := len(ref)
	var vals []float64
	for _, p := range points {
		vals = append(vals, p...)
	}
	got := make([]float64, len(points)*n)
	CellsLanes(w, sys, vals, ref, got)
	want := make([]float64, n)
	for lane, p := range points {
		Cells(w, sys, p, ref, want)
		if i := sameBits(got[lane*n:(lane+1)*n], want); i >= 0 {
			t.Fatalf("%s samples=%d lanes %v: lane %d cell %d = %x, scalar kernel %x",
				sys.Name(), n, points, lane, i, math.Float64bits(got[lane*n+i]), math.Float64bits(want[i]))
		}
	}
}

// trigEdges are the trigonometric arguments at the edges of the packed
// kernel's domain and of Sincos's branches: ±0, NaN and ±Inf, the octant
// boundaries kπ/4 and their neighbours one ulp away for four turns, and
// 2²⁸, 2²⁹, 2³⁰ with theirs. Callers try each one negated too.
func trigEdges() []float64 {
	edges := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
	for k := 1; k <= 16; k++ {
		x := float64(k) * math.Pi / 4
		edges = append(edges, x, math.Nextafter(x, 0), math.Nextafter(x, 100))
	}
	for _, x := range []float64{1 << 29, 1 << 28, 1 << 30} {
		edges = append(edges, x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1)))
	}
	return edges
}

// TestTriplePendulumEdgesMatchClosureReference: the triple pendulum's
// kernel takes the nine (sin, cos)(θᵢ−θⱼ) from three Sincos calls, by
// symmetry, where the closure reference calls Sin and Cos on each
// difference. With one initial angle at each of trigEdges (and its
// negation) and the others at 0 — equal angles, so differences of +0 — or
// at normal values, every cell is the closure's to the last bit, and a NaN
// cell is NaN on both sides: its payload may differ, because math.Sin
// returns a NaN argument itself and Sincos returns NaN().
func TestTriplePendulumEdgesMatchClosureReference(t *testing.T) {
	tp := NewTriplePendulum()
	closure := closureTriplePendulum(tp)
	ref := Reference(tp, 12)
	var w ode.Workspace
	got := make([]float64, len(ref))
	for _, e := range trigEdges() {
		for _, x := range []float64{e, -e} {
			for _, base := range [][]float64{{0, 0, 0, 0.3}, {0.4, -1.1, 0.9, 0.7}} {
				for k := range 3 {
					vals := append([]float64(nil), base...)
					vals[k] = x
					want := CellValues(closure, vals, ref)
					Cells(&w, tp, vals, ref, got)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
							t.Fatalf("vals=%v: cell %d = %x, closure reference %x",
								vals, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
						}
					}
				}
			}
		}
	}
}

// TestLanesKernelBitwiseParity: the four-lane packed kernel is the scalar
// kernel per lane, to the last bit, at every lane count from 1 to Lanes —
// on every res-12 grid point at 6, 12 and 24 samples, on 1 000 random
// points, and with a lane at the edges of its domain (±0, octant
// boundaries kπ/4 ± 1 ulp, |θ| around 2²⁹, NaN and ±Inf) in every lane
// position beside normal and padded lanes, where the batch must fall back
// to the scalar kernel without disturbing any lane. Where the CPU has no
// AVX2, or off amd64, CellsLanes is Cells per lane and this holds by
// construction; CI also runs it at GOAMD64=v3, where a scalar side the
// compiler had fused into FMAs would part ways.
func TestLanesKernelBitwiseParity(t *testing.T) {
	t.Logf("packed kernel in use: %v", avx2)
	dp := NewDoublePendulum()
	ps := dp.Params()
	stride := 1
	if testing.Short() {
		stride = 37
	}
	var w ode.Workspace
	for _, samples := range []int{6, 12, 24} {
		ref := Reference(dp, samples)
		const res = 12
		point := func(k int) []float64 {
			vals := make([]float64, len(ps))
			for m := len(ps) - 1; m >= 0; m-- {
				vals[m] = ps[m].Value(k%res, res)
				k /= res
			}
			return vals
		}
		// Batches of 1, 2, 3, 4, 1, … consecutive grid points.
		for k, n := 0, 1; k < res*res*res*res; k, n = k+n*stride, n%Lanes+1 {
			var points [][]float64
			for j := k; j < min(k+n, res*res*res*res); j++ {
				points = append(points, point(j))
			}
			checkLanes(t, &w, dp, ref, points...)
		}
	}

	ref := Reference(dp, 12)
	rng := rand.New(rand.NewSource(19))
	for p := 0; p < 400; p++ {
		var points [][]float64
		for range p%Lanes + 1 {
			points = append(points, randomVals(dp, rng))
		}
		checkLanes(t, &w, dp, ref, points...)
	}

	normal := [][]float64{{0.3, -0.7, 1.2, 0.8}, {-1.1, 0.4, 0.9, 2.1}, {1.7, 1.3, 2.4, 0.6}}
	for _, e := range trigEdges() {
		for _, x := range []float64{e, -e} {
			// φ₂ = 0 makes θ₁ and θ₁−θ₂, the two Sincos arguments, the
			// edge itself; φ₁ = 0 makes θ₁−θ₂ its negation.
			for _, edge := range [][]float64{{x, 0, 1.2, 0.8}, {0, x, 1.2, 0.8}} {
				for n := 1; n <= Lanes; n++ {
					for pos := range n {
						points := make([][]float64, n)
						for i := range points {
							points[i] = normal[(i+pos)%len(normal)]
						}
						points[pos] = edge
						checkLanes(t, &w, dp, ref, points...)
					}
				}
			}
		}
	}
}

// TestLanesWithoutAVX2RunScalar: with the AVX2 gate off — the path a CPU
// without AVX2 takes — the lanes entry still writes the scalar kernel's
// bits at every lane count, an out-of-domain lane included.
func TestLanesWithoutAVX2RunScalar(t *testing.T) {
	defer func(on bool) { avx2 = on }(avx2)
	avx2 = false
	dp := NewDoublePendulum()
	ref := Reference(dp, 12)
	rng := rand.New(rand.NewSource(20))
	var w ode.Workspace
	for n := 1; n <= Lanes; n++ {
		points := make([][]float64, n)
		for i := range points {
			points[i] = randomVals(dp, rng)
		}
		checkLanes(t, &w, dp, ref, points...)
		points[n-1] = []float64{math.Inf(1), 0, 1.2, 0.8}
		checkLanes(t, &w, dp, ref, points...)
	}
}

// TestStepsPerSampleRejectsNonPositiveMaxStep: a pendulum literal without
// a MaxStep has no step count. Both the scalar and the packed kernel take
// theirs from stepsPerSample, which panics naming the system and the value
// instead of integrating one 0.42 s step per sample.
func TestStepsPerSampleRejectsNonPositiveMaxStep(t *testing.T) {
	if got := stepsPerSample("double-pendulum", 5, 12, 0.01); got != 42 {
		t.Fatalf("stepsPerSample(5, 12, 0.01) = %d, want 42", got)
	}
	for _, maxStep := range []float64{0, -0.01, math.NaN()} {
		dp := &DoublePendulum{L: 1, G: 9.81, Horizon: 5, MaxStep: maxStep}
		ref := Reference(NewDoublePendulum(), 12)
		vals := ReferenceParams(dp)
		for name, run := range map[string]func(){
			"Cells":      func() { Cells(new(ode.Workspace), dp, vals, ref, make([]float64, 12)) },
			"CellsLanes": func() { CellsLanes(new(ode.Workspace), dp, append(vals, vals...), ref, make([]float64, 24)) },
		} {
			func() {
				defer func() {
					msg := fmt.Sprint(recover())
					if !strings.Contains(msg, "double-pendulum") || !strings.Contains(msg, fmt.Sprint(maxStep)) {
						t.Errorf("%s with MaxStep %v: panic %q, want one naming the system and the value", name, maxStep, msg)
					}
				}()
				run()
			}()
		}
	}
}
