package tensor

// Regression tests for the worker-pool kernels: every parallel kernel must
// produce BIT-IDENTICAL output for workers=1 and workers=8 (and any other
// count), because the parallel schedules partition the output index space
// and preserve the serial floating-point accumulation order. A build of
// these tests under -race also proves the kernels are data-race free.

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/mat"
)

// seededSparse builds a deterministic random sparse tensor with enough
// entries to cross the parallel kernels' serial-fallback thresholds.
func seededSparse(shape Shape, nnz int, seed int64) *Sparse {
	rng := rand.New(rand.NewSource(seed))
	s := NewSparse(shape)
	idx := make([]int, shape.Order())
	for e := 0; e < nnz; e++ {
		for k, d := range shape {
			idx[k] = rng.Intn(d)
		}
		s.Append(idx, rng.NormFloat64())
	}
	return s
}

// randomMatrix builds a deterministic random matrix.
func randomMatrix(rows, cols int, seed int64) *mat.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := mat.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// matEqualBits reports whether two matrices are bit-identical.
func matEqualBits(a, b *mat.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if v != b.Data[i] {
			return false
		}
	}
	return true
}

// denseEqualBits reports whether two dense tensors are bit-identical.
func denseEqualBits(a, b *Dense) bool {
	if !a.Shape.Equal(b.Shape) {
		return false
	}
	for i, v := range a.Data {
		if v != b.Data[i] {
			return false
		}
	}
	return true
}

var parallelTestWorkers = []int{2, 3, 8}

func TestTTMSparseWorkersBitStable(t *testing.T) {
	s := seededSparse(Shape{9, 8, 7, 6}, 6000, 1)
	m := randomMatrix(4, 9, 2)
	ms := onlyMode(s.Order(), 0, m)
	want := MultiTTMSparseWorkers(s, ms, 1)
	for _, w := range parallelTestWorkers {
		t.Run("w="+strconv.Itoa(w), func(t *testing.T) {
			if !denseEqualBits(want, MultiTTMSparseWorkers(s, ms, w)) {
				t.Fatal("TTMSparse workers=1 and workers=N differ")
			}
		})
	}
	// Middle mode too (different base/stride layout).
	ms2 := onlyMode(s.Order(), 2, randomMatrix(5, 7, 3))
	want2 := MultiTTMSparseWorkers(s, ms2, 1)
	for _, w := range parallelTestWorkers {
		if !denseEqualBits(want2, MultiTTMSparseWorkers(s, ms2, w)) {
			t.Fatalf("TTMSparse mode 2, workers=%d differs", w)
		}
	}
}

func TestTTMWorkersBitStable(t *testing.T) {
	d := seededSparse(Shape{8, 9, 10}, 500, 4).ToDense()
	m := randomMatrix(5, 9, 5)
	want := TTMWorkers(d, 1, m, 1)
	for _, w := range parallelTestWorkers {
		if !denseEqualBits(want, TTMWorkers(d, 1, m, w)) {
			t.Fatalf("TTM workers=%d differs", w)
		}
	}
}

func TestMatricizeWorkersBitStable(t *testing.T) {
	d := seededSparse(Shape{7, 8, 9}, 400, 6).ToDense()
	for n := 0; n < 3; n++ {
		want := MatricizeWorkers(d, n, 1)
		for _, w := range parallelTestWorkers {
			if !matEqualBits(want, MatricizeWorkers(d, n, w)) {
				t.Fatalf("Matricize mode %d workers=%d differs", n, w)
			}
		}
	}
}

func TestModeGramWorkersBitStable(t *testing.T) {
	s := seededSparse(Shape{12, 9, 8, 7}, 8000, 7)
	for n := 0; n < 4; n++ {
		want := ModeGramWorkers(s, n, 1)
		for _, w := range parallelTestWorkers {
			if !matEqualBits(want, ModeGramWorkers(s, n, w)) {
				t.Fatalf("ModeGram mode %d workers=%d differs", n, w)
			}
		}
	}
}

func TestModeGramWorkersStableUnderDuplicateColumns(t *testing.T) {
	// Many entries share matricization columns: the stable column sort must
	// keep storage order within a group so repeated runs and any worker
	// count agree exactly.
	s := seededSparse(Shape{6, 4, 3}, 5000, 8)
	want := ModeGramWorkers(s, 0, 1)
	again := ModeGramWorkers(s, 0, 1)
	if !matEqualBits(want, again) {
		t.Fatal("ModeGram not reproducible across runs")
	}
	for _, w := range parallelTestWorkers {
		if !matEqualBits(want, ModeGramWorkers(s, 0, w)) {
			t.Fatalf("ModeGram workers=%d differs", w)
		}
	}
}

func TestModeGramDenseWorkersBitStable(t *testing.T) {
	d := seededSparse(Shape{11, 9, 8}, 700, 9).ToDense()
	for n := 0; n < 3; n++ {
		want := ModeGramDenseWorkers(d, n, 1)
		for _, w := range parallelTestWorkers {
			if !matEqualBits(want, ModeGramDenseWorkers(d, n, w)) {
				t.Fatalf("ModeGramDense mode %d workers=%d differs", n, w)
			}
		}
	}
}

func TestMultiTTMSparseWorkersBitStable(t *testing.T) {
	s := seededSparse(Shape{9, 8, 7}, 6000, 10)
	ms := []*mat.Matrix{
		randomMatrix(3, 9, 11),
		randomMatrix(4, 8, 12),
		randomMatrix(2, 7, 13),
	}
	want := MultiTTMSparseWorkers(s, ms, 1)
	for _, w := range parallelTestWorkers {
		if !denseEqualBits(want, MultiTTMSparseWorkers(s, ms, w)) {
			t.Fatalf("MultiTTMSparse workers=%d differs", w)
		}
	}
}

// TestMultiTTMSparseHOOIStyleSweeps drives the chain the way HOOI does —
// alternating which mode is skipped, sweep after sweep — and checks every
// projection against the same chain at one worker. It also checks the
// identity HOOI's energy core rests on: the projection that skips the last
// mode, times the last matrix, is the full chain to the bit.
func TestMultiTTMSparseHOOIStyleSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	shape := Shape{9, 8, 7, 6}
	s := seededSparse(shape, 8192, 26)
	full := make([]*mat.Matrix, shape.Order())
	for n := range full {
		full[n] = mat.Random(rng, 3, shape[n])
	}
	ms := make([]*mat.Matrix, shape.Order())
	last := shape.Order() - 1
	for sweep := 0; sweep < 3; sweep++ {
		for n := 0; n < shape.Order(); n++ {
			copy(ms, full)
			ms[n] = nil
			got := MultiTTMSparseWorkers(s, ms, 2)
			bitsEqualDense(t, "HOOI-style sweep", MultiTTMSparseWorkers(s, ms, 1), got)
			if n == last {
				bitsEqualDense(t, "core from the last projection", MultiTTMSparseWorkers(s, full, 2), TTMWorkers(got, last, full[last], 2))
			}
		}
	}
}

func TestLeadingModeVectorsWorkersBitStable(t *testing.T) {
	s := seededSparse(Shape{10, 9, 8}, 7000, 14)
	want := LeadingModeVectorsWorkers(s, 0, 4, 1)
	for _, w := range parallelTestWorkers {
		if !matEqualBits(want, LeadingModeVectorsWorkers(s, 0, 4, w)) {
			t.Fatalf("LeadingModeVectors workers=%d differs", w)
		}
	}
}
