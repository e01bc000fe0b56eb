package tucker

// Regression tests: the decomposition drivers must produce BIT-IDENTICAL
// results for workers=1 and workers=N, because every parallel kernel they
// call partitions the output index space and preserves the serial
// floating-point accumulation order.

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/tensor"
)

// seededSparse builds a deterministic random sparse tensor big enough to
// cross the parallel kernels' serial-fallback thresholds.
func seededSparse(shape tensor.Shape, nnz int, seed int64) *tensor.Sparse {
	rng := rand.New(rand.NewSource(seed))
	s := tensor.NewSparse(shape)
	idx := make([]int, shape.Order())
	for e := 0; e < nnz; e++ {
		for k, d := range shape {
			idx[k] = rng.Intn(d)
		}
		s.Append(idx, rng.NormFloat64())
	}
	return s
}

// decompEqualBits reports whether two decompositions are bit-identical.
func decompEqualBits(t *testing.T, name string, a, b Decomposition) {
	t.Helper()
	if !a.Core.Shape.Equal(b.Core.Shape) {
		t.Fatalf("%s: core shape %v vs %v", name, a.Core.Shape, b.Core.Shape)
	}
	for i, v := range a.Core.Data {
		if v != b.Core.Data[i] {
			t.Fatalf("%s: core element %d differs: %v vs %v", name, i, v, b.Core.Data[i])
		}
	}
	if len(a.Factors) != len(b.Factors) {
		t.Fatalf("%s: %d vs %d factors", name, len(a.Factors), len(b.Factors))
	}
	for n, u := range a.Factors {
		w := b.Factors[n]
		if u.Rows != w.Rows || u.Cols != w.Cols {
			t.Fatalf("%s: factor %d shape %dx%d vs %dx%d", name, n, u.Rows, u.Cols, w.Rows, w.Cols)
		}
		for i, v := range u.Data {
			if v != w.Data[i] {
				t.Fatalf("%s: factor %d element %d differs: %v vs %v", name, n, i, v, w.Data[i])
			}
		}
	}
	for n, r := range a.Ranks {
		if b.Ranks[n] != r {
			t.Fatalf("%s: ranks %v vs %v", name, a.Ranks, b.Ranks)
		}
	}
}

var tuckerTestWorkers = []int{2, 4, 8}

func TestHOSVDWorkersBitStable(t *testing.T) {
	x := seededSparse(tensor.Shape{11, 10, 9}, 6000, 1)
	ranks := []int{4, 3, 5}
	want := HOSVDWorkers(x, ranks, 1)
	for _, w := range tuckerTestWorkers {
		t.Run("w="+strconv.Itoa(w), func(t *testing.T) {
			decompEqualBits(t, "HOSVD", want, HOSVDWorkers(x, ranks, w))
		})
	}
	// The default entry point must agree too (whatever the default pool size).
	decompEqualBits(t, "HOSVD-default", want, HOSVD(x, ranks))
}

func TestHOOIWorkersBitStable(t *testing.T) {
	x := seededSparse(tensor.Shape{10, 9, 8}, 6000, 5)
	ranks := []int{3, 3, 3}
	want := mustHOOI(t, x, ranks, HOOIOptions{MaxIterations: 4, Workers: 1})
	for _, w := range tuckerTestWorkers {
		t.Run("w="+strconv.Itoa(w), func(t *testing.T) {
			got := mustHOOI(t, x, ranks, HOOIOptions{MaxIterations: 4, Workers: w})
			decompEqualBits(t, "HOOI", want, got)
		})
	}
}
