package mat

// Regression tests: the row-partitioned, k-blocked matmul kernels must be
// bit-identical for workers=1 and workers=N, and the blocked serial path
// must match a naive reference exactly (the k-panel order preserves each
// output element's accumulation order).

import (
	"math/rand"
	"strconv"
	"testing"
)

func randMat(rows, cols int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func bitsEqual(t *testing.T, name string, a, b *Matrix) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", name, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i, v := range a.Data {
		if v != b.Data[i] {
			t.Fatalf("%s: element %d differs: %v vs %v", name, i, v, b.Data[i])
		}
	}
}

func TestMulWorkersBitStable(t *testing.T) {
	// Cols > mulBlockK exercises multiple k panels.
	a := randMat(37, 300, 1)
	b := randMat(300, 29, 2)
	want := MulWorkers(a, b, 1)
	for _, w := range []int{2, 4, 8, 64} {
		t.Run("w="+strconv.Itoa(w), func(t *testing.T) {
			bitsEqual(t, "Mul", want, MulWorkers(a, b, w))
		})
	}
}

func TestMulBlockedMatchesNaiveOrder(t *testing.T) {
	// The blocked kernel must reproduce the plain ikj accumulation order
	// bit for bit: for every output element the k contributions are added
	// in ascending k regardless of panel boundaries.
	a := randMat(13, 517, 3) // deliberately not a multiple of the panel
	b := randMat(517, 11, 4)
	naive := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := naive.Row(i)
		for k := 0; k < a.Cols; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range brow {
				orow[j] += aik * brow[j]
			}
		}
	}
	bitsEqual(t, "Mul-blocked-vs-naive", naive, Mul(a, b))
}

func TestMulTransAWorkersBitStable(t *testing.T) {
	a := randMat(150, 23, 5)
	b := randMat(150, 31, 6)
	want := MulTransAWorkers(a, b, 1)
	for _, w := range []int{2, 4, 8} {
		bitsEqual(t, "MulTransA w="+strconv.Itoa(w), want, MulTransAWorkers(a, b, w))
	}
}

func TestMulTransBWorkersBitStable(t *testing.T) {
	a := randMat(41, 90, 7)
	b := randMat(33, 90, 8)
	want := MulTransBWorkers(a, b, 1)
	for _, w := range []int{2, 4, 8} {
		bitsEqual(t, "MulTransB w="+strconv.Itoa(w), want, MulTransBWorkers(a, b, w))
	}
}
