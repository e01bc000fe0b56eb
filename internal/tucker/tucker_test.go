package tucker

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/tensor"
)

func randomDense(rng *rand.Rand, shape tensor.Shape) *tensor.Dense {
	d := tensor.NewDense(shape)
	for i := range d.Data {
		d.Data[i] = 2*rng.Float64() - 1
	}
	return d
}

// lowRankTensor builds X = G ×₁U₁… with known Tucker structure.
func lowRankTensor(rng *rand.Rand, shape tensor.Shape, ranks []int) *tensor.Dense {
	core := randomDense(rng, tensor.Shape(ranks))
	us := make([]*mat.Matrix, len(shape))
	for n := range shape {
		us[n] = mat.RandomOrthonormal(rng, shape[n], ranks[n])
	}
	return tensor.TuckerReconstruct(core, us)
}

func TestClipRanks(t *testing.T) {
	got := ClipRanks(tensor.Shape{3, 5, 2}, []int{4, 4, 4})
	want := []int{3, 4, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ClipRanks = %v, want %v", got, want)
		}
	}
}

func TestClipRanksPanics(t *testing.T) {
	for _, bad := range [][]int{{1, 1}, {0, 1, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ClipRanks(%v) did not panic", bad)
				}
			}()
			ClipRanks(tensor.Shape{2, 2, 2}, bad)
		}()
	}
}

func TestUniformRanks(t *testing.T) {
	r := UniformRanks(4, 7)
	if len(r) != 4 {
		t.Fatalf("len = %d", len(r))
	}
	for _, v := range r {
		if v != 7 {
			t.Fatalf("UniformRanks = %v", r)
		}
	}
}

func TestHOSVDExactRecovery(t *testing.T) {
	// A tensor with exact Tucker rank (2,2,2) must be recovered exactly at
	// those target ranks.
	rng := rand.New(rand.NewSource(100))
	x := lowRankTensor(rng, tensor.Shape{5, 6, 4}, []int{2, 2, 2})
	d := HOSVD(x.ToSparse(0), []int{2, 2, 2})
	if err := d.RelativeError(x); err > 1e-9 {
		t.Fatalf("exact-rank HOSVD error = %v", err)
	}
}

func TestHOSVDFullRankIsLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	x := randomDense(rng, tensor.Shape{4, 3, 5})
	d := HOSVD(x.ToSparse(0), []int{4, 3, 5})
	if err := d.RelativeError(x); err > 1e-9 {
		t.Fatalf("full-rank HOSVD error = %v", err)
	}
}

func TestHOSVDErrorDecreasesWithRank(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	x := randomDense(rng, tensor.Shape{6, 6, 6})
	var prev = math.Inf(1)
	for _, r := range []int{1, 2, 4, 6} {
		err := HOSVD(x.ToSparse(0), UniformRanks(3, r)).RelativeError(x)
		if err > prev+1e-12 {
			t.Fatalf("error increased with rank: %v -> %v at r=%d", prev, err, r)
		}
		prev = err
	}
	if prev > 1e-9 {
		t.Fatalf("full-rank error = %v, want ~0", prev)
	}
}

func TestHOSVDSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	x := randomDense(rng, tensor.Shape{4, 5, 3})
	// Sparsify ~50% of entries.
	for i := range x.Data {
		if rng.Float64() < 0.5 {
			x.Data[i] = 0
		}
	}
	sp := x.ToSparse(0)
	ranks := []int{2, 3, 2}
	ds := HOSVD(sp, ranks)
	dd := HOSVDReference(x, ranks)
	// Factor subspaces may differ in sign; compare reconstructions.
	if !ds.Reconstruct().Equal(dd.Reconstruct(), 1e-8) {
		t.Fatal("sparse and dense HOSVD reconstructions differ")
	}
}

func TestHOSVDFactorShapesAndOrthonormality(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	x := randomDense(rng, tensor.Shape{5, 4, 6}).ToSparse(0)
	d := HOSVD(x, []int{3, 2, 4})
	wantRows := []int{5, 4, 6}
	wantCols := []int{3, 2, 4}
	for n, f := range d.Factors {
		if f.Rows != wantRows[n] || f.Cols != wantCols[n] {
			t.Fatalf("factor %d dims %d×%d", n, f.Rows, f.Cols)
		}
		if !mat.IsOrthonormalCols(f, 1e-9) {
			t.Fatalf("factor %d not orthonormal", n)
		}
	}
	if !d.Core.Shape.Equal(tensor.Shape{3, 2, 4}) {
		t.Fatalf("core shape %v", d.Core.Shape)
	}
}

func TestHOSVDRankClipping(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	x := randomDense(rng, tensor.Shape{3, 3}).ToSparse(0)
	d := HOSVD(x, []int{10, 10})
	if d.Ranks[0] != 3 || d.Ranks[1] != 3 {
		t.Fatalf("Ranks = %v, want clipped to [3 3]", d.Ranks)
	}
	if err := d.RelativeError(x.ToDense()); err > 1e-9 {
		t.Fatalf("clipped full-rank error = %v", err)
	}
}

func TestHOSVDProjectionOptimalityPerMode(t *testing.T) {
	// HOSVD factors are the leading singular subspaces, so projecting onto
	// them must capture at least as much energy as any random subspace of
	// the same dimension.
	rng := rand.New(rand.NewSource(106))
	x := randomDense(rng, tensor.Shape{6, 5, 4})
	d := HOSVD(x.ToSparse(0), []int{2, 2, 2})
	hosvdEnergy := d.Core.Norm()
	for trial := 0; trial < 5; trial++ {
		us := make([]*mat.Matrix, 3)
		for n, dim := range []int{6, 5, 4} {
			us[n] = mat.RandomOrthonormal(rng, dim, 2)
		}
		randEnergy := tensor.MultiTTM(x, tensor.TransposeAll(us)).Norm()
		if randEnergy > hosvdEnergy+1e-9 {
			t.Fatalf("random subspace beat HOSVD: %v > %v", randEnergy, hosvdEnergy)
		}
	}
}

func TestCoreFromFactors(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	x := randomDense(rng, tensor.Shape{4, 4, 4}).ToSparse(0)
	d := HOSVD(x, []int{2, 2, 2})
	core := CoreFromFactors(x, d.Factors)
	if !core.Equal(d.Core, 1e-10) {
		t.Fatal("CoreFromFactors disagrees with HOSVD core")
	}
}

func TestHOSVDEmptyTensor(t *testing.T) {
	x := tensor.NewSparse(tensor.Shape{3, 3, 3})
	d := HOSVD(x, []int{2, 2, 2})
	if d.Core.Norm() != 0 {
		t.Fatal("empty tensor core should be zero")
	}
	if d.Reconstruct().Norm() != 0 {
		t.Fatal("empty tensor reconstruction should be zero")
	}
}

func TestGramRouteMatchesReferenceHOSVD(t *testing.T) {
	// The production HOSVD (Gram eigendecomposition, never materialising
	// the unfoldings) must span the same subspaces as the paper-literal
	// Algorithm 1 (full SVD of each explicit matricization): identical
	// reconstructions and identical per-mode projectors.
	rng := rand.New(rand.NewSource(148))
	for trial := 0; trial < 4; trial++ {
		x := randomDense(rng, tensor.Shape{5, 4, 6})
		ranks := []int{3, 2, 4}
		ref := HOSVDReference(x, ranks)
		prod := HOSVD(x.ToSparse(0), ranks)
		if !ref.Reconstruct().Equal(prod.Reconstruct(), 1e-8) {
			t.Fatalf("trial %d: reconstructions differ between Gram route and Algorithm 1", trial)
		}
		for n := range ranks {
			pRef := mat.MulTransB(ref.Factors[n], ref.Factors[n])
			pProd := mat.MulTransB(prod.Factors[n], prod.Factors[n])
			if !pRef.Equal(pProd, 1e-7) {
				t.Fatalf("trial %d: mode-%d subspaces differ", trial, n)
			}
		}
	}
}

func TestReferenceHOSVDExactRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(149))
	x := lowRankTensor(rng, tensor.Shape{4, 5, 3}, []int{2, 2, 2})
	d := HOSVDReference(x, []int{2, 2, 2})
	if err := d.RelativeError(x); err > 1e-9 {
		t.Fatalf("reference HOSVD exact-rank error = %v", err)
	}
}
