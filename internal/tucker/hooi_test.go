package tucker

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/tensor"
)

// mustHOOI is HOOICtx for tests that never cancel.
func mustHOOI(t testing.TB, x *tensor.Sparse, ranks []int, opts HOOIOptions) Decomposition {
	t.Helper()
	d, err := HOOICtx(context.Background(), x, ranks, opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestHOOIExactRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(140))
	x := lowRankTensor(rng, tensor.Shape{5, 6, 4}, []int{2, 2, 2})
	d := mustHOOI(t, x.ToSparse(0), []int{2, 2, 2}, HOOIOptions{})
	if err := d.RelativeError(x); err > 1e-8 {
		t.Fatalf("exact-rank HOOI error = %v", err)
	}
}

func TestHOOINotWorseThanHOSVD(t *testing.T) {
	rng := rand.New(rand.NewSource(141))
	for trial := 0; trial < 5; trial++ {
		x := randomDense(rng, tensor.Shape{6, 6, 6})
		sp := x.ToSparse(0)
		ranks := []int{2, 2, 2}
		hosvdErr := HOSVD(sp, ranks).RelativeError(x)
		hooiErr := mustHOOI(t, sp, ranks, HOOIOptions{}).RelativeError(x)
		if hooiErr > hosvdErr+1e-9 {
			t.Fatalf("trial %d: HOOI error %v worse than HOSVD %v", trial, hooiErr, hosvdErr)
		}
	}
}

func TestHOOIFactorsOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(142))
	x := randomDense(rng, tensor.Shape{5, 4, 6}).ToSparse(0)
	d := mustHOOI(t, x, []int{3, 2, 3}, HOOIOptions{})
	for n, f := range d.Factors {
		if !mat.IsOrthonormalCols(f, 1e-9) {
			t.Fatalf("HOOI factor %d not orthonormal", n)
		}
	}
}

func TestHOOIEmptyTensor(t *testing.T) {
	d := mustHOOI(t, tensor.NewSparse(tensor.Shape{3, 3}), []int{2, 2}, HOOIOptions{})
	if d.Core.Norm() != 0 {
		t.Fatal("empty tensor core not zero")
	}
}

func TestFitOf(t *testing.T) {
	rng := rand.New(rand.NewSource(143))
	x := randomDense(rng, tensor.Shape{5, 5, 5}).ToSparse(0)
	// Full-rank: fit must be ~1.
	full := HOSVD(x, []int{5, 5, 5})
	fit, err := FitOf(full, x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit-1) > 1e-9 {
		t.Fatalf("full-rank fit = %v", fit)
	}
	// Truncated: fit matches the explicit reconstruction error.
	trunc := HOSVD(x, []int{2, 2, 2})
	fit, err = FitOf(trunc, x)
	if err != nil {
		t.Fatal(err)
	}
	explicit := 1 - trunc.RelativeError(x.ToDense())
	if math.Abs(fit-explicit) > 1e-9 {
		t.Fatalf("FitOf %v != explicit fit %v", fit, explicit)
	}
}

// TestFitOfExactDecompositionIsOne: a full-rank HOSVD reproduces its
// tensor, and the rounding left in ‖X‖² − ‖G‖² — up to 55 ulps of ‖X‖² at
// 8 000 cells, growing with the cell count — is no misfit at any size.
func TestFitOfExactDecompositionIsOne(t *testing.T) {
	for _, shape := range []tensor.Shape{{5, 5, 5}, {12, 12, 12}, {20, 20, 20}, {6, 6, 6, 6}} {
		for seed := int64(140); seed < 160; seed++ {
			x := randomDense(rand.New(rand.NewSource(seed)), shape).ToSparse(0)
			fit, err := FitOf(HOSVD(x, []int(shape)), x)
			if err != nil {
				t.Fatal(err)
			}
			if fit != 1 {
				t.Fatalf("shape %v seed %d: full-rank fit = %v", shape, seed, fit)
			}
		}
	}
}

func TestFitOfRejectsNonOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(144))
	x := randomDense(rng, tensor.Shape{4, 4}).ToSparse(0)
	d := HOSVD(x, []int{2, 2})
	d.Factors[0] = mat.Add(d.Factors[0], d.Factors[0])
	if _, err := FitOf(d, x); err == nil {
		t.Fatal("non-orthonormal factors accepted")
	}
}

func TestFitOfEmptyTensor(t *testing.T) {
	x := tensor.NewSparse(tensor.Shape{3, 3})
	d := HOSVD(x, []int{2, 2})
	fit, err := FitOf(d, x)
	if err != nil {
		t.Fatal(err)
	}
	if fit != 1 {
		t.Fatalf("empty tensor fit = %v", fit)
	}
}
