package ode

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// expDecay: y' = -y, exact solution y(t) = y0·e^{-t}.
func expDecay(t float64, y, dst []float64) { dst[0] = -y[0] }

// harmonic oscillator: y” = -y as a 2-state system.
func harmonic(t float64, y, dst []float64) {
	dst[0] = y[1]
	dst[1] = -y[0]
}

// RK4 integrates y' = f(t, y) from (t0, y0) to t1 using n fixed steps of
// the classical 4th-order Runge–Kutta method and returns the final state:
// the single sample of an n-step Samples run.
func RK4(f Derivative, t0, t1 float64, y0 []float64, n int) []float64 {
	return Trajectory(f, t0, t1, y0, 1, n)[0]
}

func TestRK4ExponentialDecay(t *testing.T) {
	got := RK4(expDecay, 0, 1, []float64{1}, 100)
	want := math.Exp(-1)
	if math.Abs(got[0]-want) > 1e-8 {
		t.Fatalf("RK4 e^-1 = %v, want %v", got[0], want)
	}
}

func TestRK4FourthOrderConvergence(t *testing.T) {
	// Halving the step size should reduce error by ~2^4 = 16.
	exact := math.Exp(-2)
	err := func(n int) float64 {
		y := RK4(expDecay, 0, 2, []float64{1}, n)
		return math.Abs(y[0] - exact)
	}
	e1, e2 := err(20), err(40)
	ratio := e1 / e2
	if ratio < 12 || ratio > 20 {
		t.Fatalf("convergence ratio = %v, want ≈16 (4th order)", ratio)
	}
}

func TestRK4HarmonicOscillatorPeriod(t *testing.T) {
	// After one full period 2π the oscillator returns to its start.
	y := RK4(harmonic, 0, 2*math.Pi, []float64{1, 0}, 1000)
	if math.Abs(y[0]-1) > 1e-6 || math.Abs(y[1]) > 1e-6 {
		t.Fatalf("after period: %v, want [1 0]", y)
	}
}

func TestRK4EnergyConservation(t *testing.T) {
	// Harmonic oscillator conserves E = (y² + y'²)/2.
	y := RK4(harmonic, 0, 10, []float64{0.5, 0.25}, 2000)
	e0 := (0.5*0.5 + 0.25*0.25) / 2
	e1 := (y[0]*y[0] + y[1]*y[1]) / 2
	if math.Abs(e1-e0) > 1e-8 {
		t.Fatalf("energy drifted: %v -> %v", e0, e1)
	}
}

func TestRK4InvalidStepsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RK4 with n=0 did not panic")
		}
	}()
	RK4(expDecay, 0, 1, []float64{1}, 0)
}

func TestRK4DoesNotMutateInitialState(t *testing.T) {
	y0 := []float64{1, 0}
	RK4(harmonic, 0, 1, y0, 10)
	if y0[0] != 1 || y0[1] != 0 {
		t.Fatal("RK4 mutated the initial state")
	}
}

func TestTrajectorySamples(t *testing.T) {
	traj := Trajectory(expDecay, 0, 1, []float64{1}, 4, 25)
	if len(traj) != 4 {
		t.Fatalf("got %d samples, want 4", len(traj))
	}
	for s, y := range traj {
		tt := float64(s+1) * 0.25
		if math.Abs(y[0]-math.Exp(-tt)) > 1e-8 {
			t.Fatalf("sample %d = %v, want %v", s, y[0], math.Exp(-tt))
		}
	}
}

func TestTrajectoryMatchesRK4Endpoint(t *testing.T) {
	traj := Trajectory(harmonic, 0, 3, []float64{1, 0}, 6, 10)
	direct := RK4(harmonic, 0, 3, []float64{1, 0}, 60)
	last := traj[len(traj)-1]
	for i := range direct {
		if math.Abs(last[i]-direct[i]) > 1e-12 {
			t.Fatalf("Trajectory endpoint %v != RK4 %v", last, direct)
		}
	}
}

func TestTrajectoryInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Trajectory with zero samples did not panic")
		}
	}()
	Trajectory(expDecay, 0, 1, []float64{1}, 0, 1)
}

// Property: linearity — integrating c·y0 gives c times the result of y0
// for the linear decay system.
func TestRK4LinearityQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		y0 := rng.Float64() + 0.1
		c := rng.Float64()*3 + 0.5
		a := RK4(expDecay, 0, 1, []float64{y0}, 50)
		b := RK4(expDecay, 0, 1, []float64{c * y0}, 50)
		return math.Abs(b[0]-c*a[0]) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(51))}); err != nil {
		t.Error(err)
	}
}

// referenceRK4Step, referenceRK4 and referenceTrajectory are the two
// fixed-step loops as they stood before Workspace.Samples replaced them —
// per-call buffers, h/2 and h/6 evaluated per element — kept as the
// bit-level reference of the one loop.
func referenceRK4Step(f Derivative, t, h float64, y, k1, k2, k3, k4, tmp []float64) {
	dim := len(y)
	f(t, y, k1)
	for i := 0; i < dim; i++ {
		tmp[i] = y[i] + h/2*k1[i]
	}
	f(t+h/2, tmp, k2)
	for i := 0; i < dim; i++ {
		tmp[i] = y[i] + h/2*k2[i]
	}
	f(t+h/2, tmp, k3)
	for i := 0; i < dim; i++ {
		tmp[i] = y[i] + h*k3[i]
	}
	f(t+h, tmp, k4)
	for i := 0; i < dim; i++ {
		y[i] += h / 6 * (k1[i] + 2*k2[i] + 2*k3[i] + k4[i])
	}
}

func referenceRK4(f Derivative, t0, t1 float64, y0 []float64, n int) []float64 {
	dim := len(y0)
	y := append([]float64(nil), y0...)
	k1, k2, k3, k4, tmp := make([]float64, dim), make([]float64, dim), make([]float64, dim), make([]float64, dim), make([]float64, dim)
	h := (t1 - t0) / float64(n)
	t := t0
	for s := 0; s < n; s++ {
		referenceRK4Step(f, t, h, y, k1, k2, k3, k4, tmp)
		t = t0 + float64(s+1)*h
	}
	return y
}

func referenceTrajectory(f Derivative, t0, t1 float64, y0 []float64, numSamples, stepsPerSample int) [][]float64 {
	dim := len(y0)
	y := append([]float64(nil), y0...)
	k1, k2, k3, k4, tmp := make([]float64, dim), make([]float64, dim), make([]float64, dim), make([]float64, dim), make([]float64, dim)
	out := make([][]float64, numSamples)
	dt := (t1 - t0) / float64(numSamples)
	h := dt / float64(stepsPerSample)
	for s := 0; s < numSamples; s++ {
		base := t0 + float64(s)*dt
		for q := 0; q < stepsPerSample; q++ {
			referenceRK4Step(f, base+float64(q)*h, h, y, k1, k2, k3, k4, tmp)
		}
		out[s] = append([]float64(nil), y...)
	}
	return out
}

// forced is a non-autonomous, nonlinear 3-state system: its derivatives
// depend on t, so the parity below also pins the stage times.
func forced(t float64, y, dst []float64) {
	dst[0] = y[1] + math.Sin(3*t)
	dst[1] = -y[0]*y[2] + 0.1*t
	dst[2] = y[0]*y[1] - 0.5*y[2]
}

// TestSamplesBitIdenticalToReferenceLoops: RK4 and Trajectory, now thin
// wrappers over Workspace.Samples, return exactly the bits of the loops
// they replaced — over random spans, initial states and step counts, and
// with one workspace reused across integrations of different dimensions.
func TestSamplesBitIdenticalToReferenceLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var w Workspace
	for trial := 0; trial < 200; trial++ {
		f, y0 := Derivative(forced), []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		if trial%2 == 1 {
			f, y0 = harmonic, y0[:2]
		}
		t0 := rng.Float64()*2 - 1
		t1 := t0 + 0.1 + 3*rng.Float64()
		n := 1 + rng.Intn(200)
		got, want := RK4(f, t0, t1, y0, n), referenceRK4(f, t0, t1, y0, n)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: RK4 component %d = %x, reference %x", trial, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
		samples, steps := 1+rng.Intn(24), 1+rng.Intn(30)
		wantTraj := referenceTrajectory(f, t0, t1, y0, samples, steps)
		gotTraj := Trajectory(f, t0, t1, y0, samples, steps)
		w.Samples(f, t0, t1, y0, samples, steps, func(s int, y []float64) {
			for i := range y {
				if math.Float64bits(y[i]) != math.Float64bits(wantTraj[s][i]) || math.Float64bits(gotTraj[s][i]) != math.Float64bits(wantTraj[s][i]) {
					t.Fatalf("trial %d: sample %d component %d differs from the reference loop", trial, s, i)
				}
			}
		})
	}
}

// TestSamplesReusesWorkspace: after the first integration sizes it, a
// workspace integrates without allocating.
func TestSamplesReusesWorkspace(t *testing.T) {
	var w Workspace
	y0 := []float64{1, 0, 0.5}
	var sink float64
	visit := func(_ int, y []float64) { sink += y[0] }
	w.Samples(forced, 0, 1, y0, 4, 10, visit)
	if a := testing.AllocsPerRun(20, func() { w.Samples(forced, 0, 1, y0, 4, 10, visit) }); a != 0 {
		t.Fatalf("warm workspace allocates %v times per integration, want 0", a)
	}
}
