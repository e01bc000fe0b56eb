package tensor

import (
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// bitsEqualMat fails the test unless a and b agree exactly (bit-for-bit).
func bitsEqualMat(t *testing.T, name string, a, b *mat.Matrix) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", name, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i, v := range a.Data {
		if v != b.Data[i] {
			t.Fatalf("%s: element %d = %v vs %v (not bit-identical)", name, i, v, b.Data[i])
		}
	}
}

// bitsEqualDense fails the test unless a and b agree exactly.
func bitsEqualDense(t *testing.T, name string, a, b *Dense) {
	t.Helper()
	if !a.Shape.Equal(b.Shape) {
		t.Fatalf("%s: shape %v vs %v", name, a.Shape, b.Shape)
	}
	for i, v := range a.Data {
		if v != b.Data[i] {
			t.Fatalf("%s: element %d = %v vs %v (not bit-identical)", name, i, v, b.Data[i])
		}
	}
}

// withDuplicates appends a duplicated slice of entries so kernels must cope
// with pre-Dedup tensors.
func withDuplicates(rng *rand.Rand, s *Sparse, n int) *Sparse {
	o := s.Order()
	for i := 0; i < n; i++ {
		e := rng.Intn(s.NNZ())
		s.Append(s.Idx[e*o:(e+1)*o], rng.NormFloat64())
	}
	return s
}

func TestModeGramMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	shapes := []Shape{{7, 5, 4}, {4, 6, 3, 5}, {3, 3, 3, 3, 3}}
	for _, shape := range shapes {
		s := withDuplicates(rng, randomSparse(rng, shape, shape.NumElements()/3), 15)
		for n := 0; n < shape.Order(); n++ {
			for _, w := range []int{1, 8} {
				got := ModeGramWorkers(s, n, w)
				want := modeGramWorkersRef(s, n, w)
				bitsEqualMat(t, "ModeGram", got, want)
			}
		}
	}
}

func TestTTMSparseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Large enough to cross ttmSparseRefMinNNZ, so the reference runs its
	// slab-parallel path at workers > 1.
	s := withDuplicates(rng, randomSparse(rng, Shape{12, 11, 10, 9}, 6000), 100)
	for n := 0; n < s.Order(); n++ {
		m := mat.Random(rand.New(rand.NewSource(int64(n))), 4, s.Shape[n])
		for _, w := range []int{1, 2, 8} {
			got := MultiTTMSparseWorkers(s, onlyMode(s.Order(), n, m), w)
			want := ttmSparseWorkersRef(s, n, m, w)
			bitsEqualDense(t, "TTMSparse", got, want)
		}
	}
}

func TestTTMDenseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, shape := range []Shape{{9, 8, 7}, {6, 5, 4, 7}, {3, 4, 2, 3, 2}} {
		d := randomDense(rng, shape)
		for n := 0; n < shape.Order(); n++ {
			m := mat.Random(rand.New(rand.NewSource(int64(n))), 3, shape[n])
			for _, w := range []int{1, 8} {
				got := TTMWorkers(d, n, m, w)
				want := ttmWorkersRef(d, n, m, w)
				bitsEqualDense(t, "TTMDense", got, want)
			}
		}
	}
}

func TestModeGramDenseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shape := range []Shape{{8, 7, 6}, {5, 6, 4, 5}} {
		d := randomDense(rng, shape)
		// Zero out some fibers so the nonzero-fiber hoisting is exercised.
		for i := 0; i < len(d.Data); i += 7 {
			d.Data[i] = 0
		}
		for i := 0; i < len(d.Data)/4; i++ {
			d.Data[rng.Intn(len(d.Data))] = 0
		}
		for n := 0; n < shape.Order(); n++ {
			for _, w := range []int{1, 8} {
				got := ModeGramDenseWorkers(d, n, w)
				want := modeGramDenseWorkersRef(d, n, w)
				bitsEqualMat(t, "ModeGramDense", got, want)
			}
		}
	}
}
