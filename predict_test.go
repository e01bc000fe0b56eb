package m2td

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/dynsys"
	"repro/internal/eval"
)

func TestPredictOnGridMatchesReconstruction(t *testing.T) {
	report, err := RunCtx(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	space := report.Space
	recon := report.Decomposition.Reconstruct()
	ps := space.Sys.Params()
	// Pick a grid point and feed its exact physical values.
	gridIdx := []int{1, 3, 0, 2}
	vals := make([]float64, 4)
	for m, p := range ps {
		vals[m] = p.Value(gridIdx[m], space.Res)
	}
	fiber, err := report.Predict(vals)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < space.TimeSamples; tt++ {
		want := recon.At(1, 3, 0, 2, tt)
		if math.Abs(fiber[tt]-want) > 1e-9 {
			t.Fatalf("t=%d: Predict %v != reconstruction %v", tt, fiber[tt], want)
		}
	}
}

func TestPredictMidpointBetweenNeighbours(t *testing.T) {
	report, err := RunCtx(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	space := report.Space
	ps := space.Sys.Params()
	// Midway between grid points 1 and 2 of the first parameter: the
	// prediction must be the average of the two neighbouring fibers
	// (multilinearity).
	base := []int{1, 3, 0, 2}
	valsLo := make([]float64, 4)
	valsHi := make([]float64, 4)
	valsMid := make([]float64, 4)
	for m, p := range ps {
		valsLo[m] = p.Value(base[m], space.Res)
		valsHi[m] = valsLo[m]
		valsMid[m] = valsLo[m]
	}
	valsHi[0] = ps[0].Value(base[0]+1, space.Res)
	valsMid[0] = (valsLo[0] + valsHi[0]) / 2

	lo, err := report.Predict(valsLo)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := report.Predict(valsHi)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := report.Predict(valsMid)
	if err != nil {
		t.Fatal(err)
	}
	for tt := range mid {
		want := (lo[tt] + hi[tt]) / 2
		if math.Abs(mid[tt]-want) > 1e-9 {
			t.Fatalf("t=%d: midpoint %v != average %v", tt, mid[tt], want)
		}
	}
}

func TestPredictClampsOutOfRange(t *testing.T) {
	report, err := RunCtx(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	ps := report.Space.Sys.Params()
	below := make([]float64, 4)
	atMin := make([]float64, 4)
	for m, p := range ps {
		below[m] = p.Min - 100
		atMin[m] = p.Min
	}
	a, err := report.Predict(below)
	if err != nil {
		t.Fatal(err)
	}
	b, err := report.Predict(atMin)
	if err != nil {
		t.Fatal(err)
	}
	for tt := range a {
		if a[tt] != b[tt] {
			t.Fatal("out-of-range values not clamped to the boundary")
		}
	}
}

func TestPredictApproximatesSimulation(t *testing.T) {
	// On a smooth system (SEIR) at a decent resolution, the prediction at
	// the reference parameters should be near the true cell values
	// (distance ≈ 0 at the reference — prediction should be small compared
	// with typical cell magnitudes).
	report, err := RunCtx(context.Background(), Config{
		System:     "seir",
		Resolution: 8,
		Rank:       4,
		Method:     "select",
		Seed:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	space := report.Space
	ref := dynsys.ReferenceParams(space.Sys)
	fiber, err := report.Predict(ref)
	if err != nil {
		t.Fatal(err)
	}
	truth := space.GroundTruth()
	var rms float64
	for _, v := range truth.Data {
		rms += v * v
	}
	rms = math.Sqrt(rms / float64(len(truth.Data)))
	for tt, v := range fiber {
		if math.Abs(v) > rms {
			t.Fatalf("t=%d: predicted distance %v exceeds RMS cell value %v at the reference point", tt, v, rms)
		}
	}
}

func TestPredictValidation(t *testing.T) {
	report, err := RunCtx(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := report.Predict([]float64{1, 2}); err == nil {
		t.Fatal("wrong parameter count accepted")
	}
	vals := dynsys.ReferenceParams(report.Space.Sys)
	nan := append([]float64{math.NaN()}, vals[1:]...)
	if fiber, err := report.Predict(nan); err == nil {
		t.Fatalf("NaN parameter accepted: %v", fiber)
	}
	// ±Inf clamps to the parameter's range.
	inf := append([]float64{math.Inf(1)}, vals[1:]...)
	atMax := append([]float64{report.Space.Sys.Params()[0].Max}, vals[1:]...)
	got, err := report.Predict(inf)
	want, err2 := report.Predict(atMax)
	if err != nil || err2 != nil || !slices.Equal(got, want) {
		t.Fatalf("+Inf parameter: %v (err %v), want the clamped %v (err %v)", got, err, want, err2)
	}
	if fiber, err := report.Predict(vals); err != nil || len(fiber) != report.Space.TimeSamples {
		t.Fatalf("Predict at the reference point: %d values, err %v; want one per timestamp", len(fiber), err)
	}
	bare := &Report{Space: report.Space}
	if _, err := bare.Predict(vals); err == nil {
		t.Fatal("report without decomposition accepted")
	}
}

// TestPredictOnGridIsTimeFiber: on grid points Predict's interpolated rows
// are the factor rows, so it returns the estimator's TimeFiber bit for bit,
// at every grid point and for every fusion method.
func TestPredictOnGridIsTimeFiber(t *testing.T) {
	for _, method := range []Method{MethodSELECT, MethodAVG, MethodCONCAT} {
		cfg := smallConfig()
		cfg.Method = method
		cfg.SkipAccuracy = true
		report, err := RunCtx(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		space, dec := report.Space, report.Decomposition
		model := eval.TuckerModel{Core: dec.Core, Factors: dec.Factors}
		ps := space.Sys.Params()
		idx, vals := make([]int, len(ps)), make([]float64, len(ps))
		for sim := 0; sim < space.TotalSims(); sim++ {
			space.SimIndex(sim, idx)
			for m, p := range ps {
				vals[m] = p.Value(idx[m], space.Res)
			}
			got, err := report.Predict(vals)
			if err != nil {
				t.Fatal(err)
			}
			want := model.TimeFiber(model.GridRows(idx))
			if len(got) != len(want) {
				t.Fatalf("%s %v: %d values, TimeFiber %d", method, idx, len(got), len(want))
			}
			for tt, v := range want {
				if math.Float64bits(got[tt]) != math.Float64bits(v) {
					t.Fatalf("%s %v t=%d: Predict %v, TimeFiber %v", method, idx, tt, got[tt], v)
				}
			}
		}
	}
}
