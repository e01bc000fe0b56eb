package tucker

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

func TestSketchValidation(t *testing.T) {
	x := tensor.NewSparse(tensor.Shape{2, 2})
	for _, frac := range []float64{0, -0.5, 1.5, 2} {
		if _, _, err := Sketch(x, SketchOptions{KeepFrac: frac, Seed: 1}); err == nil {
			t.Fatalf("KeepFrac %v accepted", frac)
		}
	}
}

func TestSketchEmptyAndZero(t *testing.T) {
	empty, stats, err := Sketch(tensor.NewSparse(tensor.Shape{3, 3}), SketchOptions{KeepFrac: 0.5, Seed: 2})
	if err != nil || empty.NNZ() != 0 || stats.Kept != 0 {
		t.Fatalf("empty sketch: %v, %d cells, stats %+v", err, empty.NNZ(), stats)
	}
	zeros := tensor.NewSparse(tensor.Shape{2})
	zeros.Append([]int{0}, 0)
	sk, stats, err := Sketch(zeros, SketchOptions{KeepFrac: 0.5, Seed: 2})
	if err != nil || sk.NNZ() != 0 {
		t.Fatalf("all-zero sketch: %v, %d cells", err, sk.NNZ())
	}
	if stats.InputNNZ != 1 || stats.Kept != 0 {
		t.Fatalf("all-zero stats %+v", stats)
	}
}

func TestSketchIsPureFunctionOfSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randomDense(rng, tensor.Shape{10, 10, 10}).ToSparse(0)
	a, astats, err := Sketch(x, SketchOptions{KeepFrac: 0.3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, bstats, err := Sketch(x, SketchOptions{KeepFrac: 0.3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !sparseBitsEqual(a, b) || astats != bstats {
		t.Fatal("same seed produced different sketches")
	}
	c, _, err := Sketch(x, SketchOptions{KeepFrac: 0.3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if sparseBitsEqual(a, c) {
		t.Fatal("different seeds produced identical sketches (hash not keyed on seed?)")
	}
}

func TestSketchSizeTracksKeepFrac(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randomDense(rng, tensor.Shape{10, 10, 10}).ToSparse(0)
	sk, stats, err := Sketch(x, SketchOptions{KeepFrac: 0.3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := float64(sk.NNZ()) / float64(x.NNZ())
	if got < 0.15 || got > 0.5 {
		t.Fatalf("kept fraction %v, want ≈0.3", got)
	}
	if stats.InputNNZ != x.NNZ() || stats.Kept != sk.NNZ() {
		t.Fatalf("stats %+v inconsistent with sketch of %d/%d", stats, sk.NNZ(), x.NNZ())
	}
}

func TestSketchIsUnbiased(t *testing.T) {
	// Averaging many independent sketches (one per SEED — the estimator's
	// randomness is the hash seed now, not a generator state) approaches
	// the original tensor.
	rng := rand.New(rand.NewSource(4))
	x := randomDense(rng, tensor.Shape{4, 4})
	for i := range x.Data {
		x.Data[i] = math.Abs(x.Data[i]) + 0.1 // keep values bounded away from 0
	}
	sp := x.ToSparse(0)
	sum := tensor.NewDense(x.Shape)
	const trials = 3000
	for seed := int64(1); seed <= trials; seed++ {
		sk, _, err := Sketch(sp, SketchOptions{KeepFrac: 0.5, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		sum = sum.Add(sk.ToDense())
	}
	for i := range sum.Data {
		sum.Data[i] /= trials
	}
	relErr := sum.Sub(x).Norm() / x.Norm()
	if relErr > 0.05 {
		t.Fatalf("sketch estimator bias: relative error %v", relErr)
	}
}

func TestSketchBitStableAcrossWorkers(t *testing.T) {
	// The sketch must be the identical tensor for any worker count and
	// fan-out cap (the faults job sweeps this under -race at several
	// M2TD_WORKERS values). 9000 entries push both the AbsSum grid and the
	// selection grid into multi-strip territory.
	prev := parallel.SetFanoutCap(8)
	defer parallel.SetFanoutCap(prev)
	rng := rand.New(rand.NewSource(9))
	x := randomDense(rng, tensor.Shape{12, 10, 8, 10}).ToSparse(0)
	opts := SketchOptions{KeepFrac: 0.2, Seed: 11}
	opts.Workers = 1
	want, wstats, err := Sketch(x, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 8} {
		t.Run("w="+strconv.Itoa(w), func(t *testing.T) {
			opts.Workers = w
			got, gstats, err := Sketch(x, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !sparseBitsEqual(want, got) {
				t.Fatalf("sketch workers=%d differs from workers=1", w)
			}
			if wstats != gstats {
				t.Fatalf("stats workers=%d %+v differ from workers=1 %+v", w, gstats, wstats)
			}
		})
	}
}

// TestSketchInheritsPlansAcrossWorkers — the name is older than the
// removal of per-tensor plan caches; a sketch inherits no plan. A source
// that was already decomposed (warm) and a clone of it (cold), sketched at
// 8 workers and at 1, give the same sketch, the same stats and the same
// decomposition bits.
func TestSketchInheritsPlansAcrossWorkers(t *testing.T) {
	prev := parallel.SetFanoutCap(8)
	defer parallel.SetFanoutCap(prev)
	rng := rand.New(rand.NewSource(12))
	x := randomDense(rng, tensor.Shape{12, 10, 8, 10}).ToSparse(0)
	cold := x.Clone()
	HOSVD(x, UniformRanks(4, 4))
	warm, wstats, err := Sketch(x, SketchOptions{KeepFrac: 0.3, Seed: 5, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	fresh, fstats, err := Sketch(cold, SketchOptions{KeepFrac: 0.3, Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !sparseBitsEqual(warm, fresh) || wstats != fstats {
		t.Fatalf("warm-source sketch at 8 workers differs from a cold one at 1: stats %+v vs %+v", wstats, fstats)
	}
	a := HOSVD(warm, UniformRanks(4, 4))
	b := HOSVD(fresh, UniformRanks(4, 4))
	if !decompBitsEqual(a, b) {
		t.Fatal("decomposition of the warm-source sketch differs from the cold one's")
	}
}

func TestSketchInheritsQuarantine(t *testing.T) {
	x := tensor.NewSparse(tensor.Shape{4, 4})
	x.RejectNonFinite = true
	x.Append([]int{0, 0}, math.Inf(1)) // quarantined at ingest
	x.Append([]int{1, 2}, 5)
	x.Append([]int{3, 3}, -2)
	if x.Rejected != 1 {
		t.Fatalf("fixture rejected=%d", x.Rejected)
	}
	sk, _, err := Sketch(x, SketchOptions{KeepFrac: 0.5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !sk.RejectNonFinite || sk.Rejected != 1 {
		t.Fatalf("sketch dropped quarantine state: RejectNonFinite=%v Rejected=%d", sk.RejectNonFinite, sk.Rejected)
	}
}

// sparseBitsEqual reports exact equality of shape, indices, and value bits.
func sparseBitsEqual(a, b *tensor.Sparse) bool {
	if a.NNZ() != b.NNZ() || len(a.Idx) != len(b.Idx) {
		return false
	}
	for i := range a.Idx {
		if a.Idx[i] != b.Idx[i] {
			return false
		}
	}
	for i := range a.Vals {
		if math.Float64bits(a.Vals[i]) != math.Float64bits(b.Vals[i]) {
			return false
		}
	}
	return true
}

// decompBitsEqual reports exact equality of two decompositions' cores and
// factors.
func decompBitsEqual(a, b Decomposition) bool {
	if len(a.Factors) != len(b.Factors) || len(a.Core.Data) != len(b.Core.Data) {
		return false
	}
	for i := range a.Core.Data {
		if math.Float64bits(a.Core.Data[i]) != math.Float64bits(b.Core.Data[i]) {
			return false
		}
	}
	for n := range a.Factors {
		fa, fb := a.Factors[n], b.Factors[n]
		if fa.Rows != fb.Rows || fa.Cols != fb.Cols {
			return false
		}
		for i := range fa.Data {
			if math.Float64bits(fa.Data[i]) != math.Float64bits(fb.Data[i]) {
				return false
			}
		}
	}
	return true
}
