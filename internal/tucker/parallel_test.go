package tucker

// Regression tests: the decomposition drivers must produce BIT-IDENTICAL
// results for workers=1 and workers=N, because every parallel kernel they
// call partitions the output index space and preserves the serial
// floating-point accumulation order.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/parallel"
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
	want := mustHOOI(t, x, ranks, HOOIOptions{Workers: 1})
	for _, w := range tuckerTestWorkers {
		t.Run("w="+strconv.Itoa(w), func(t *testing.T) {
			got := mustHOOI(t, x, ranks, HOOIOptions{Workers: w})
			decompEqualBits(t, "HOOI", want, got)
		})
	}
}

// TestTuckerBitsPinnedWorkers pins HOSVD's and HOOI's absolute output, not
// just its agreement across worker counts: orders 1 to 5 at workers 1, 2
// and 8 hash to the bits recorded when every Gram group began summing a
// row's cells before it multiplies (FNV-64a over the core's, then the
// factors', float bits; amd64 — other ports may fuse multiply-adds).
// seededSparse draws coordinates with replacement, so every tensor holds
// unsorted and duplicate entries, and its Grams take the no-run-mode
// column rule.
func TestTuckerBitsPinnedWorkers(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("bit fingerprints were recorded on amd64")
	}
	prev := parallel.SetFanoutCap(8)
	defer parallel.SetFanoutCap(prev)
	bitsOf := func(d Decomposition) string {
		h := fnv.New64a()
		put := func(vs []float64) {
			for _, v := range vs {
				h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
			}
		}
		put(d.Core.Data)
		for _, f := range d.Factors {
			put(f.Data)
		}
		return fmt.Sprintf("%016x", h.Sum64())
	}
	for _, c := range []struct {
		shape       tensor.Shape
		nnz         int
		ranks       []int
		hosvd, hooi string
	}{
		{tensor.Shape{60}, 5000, []int{3}, "457a61710d24607b", "457a61710d24607b"},
		{tensor.Shape{40, 30}, 6000, []int{4, 3}, "114048d7abdabc60", "c98bc3dc2a894403"},
		{tensor.Shape{10, 9, 8}, 6000, []int{3, 3, 3}, "0b618fd890c2163f", "d5ea18db3c8f9764"},
		{tensor.Shape{8, 7, 6, 5}, 3000, []int{3, 2, 3, 2}, "35777267bc141f10", "075275e22b646c22"},
		{tensor.Shape{5, 4, 5, 4, 3}, 2000, []int{2, 2, 2, 2, 2}, "86ca907c43f4aded", "ca05685e54962368"},
	} {
		x := seededSparse(c.shape, c.nnz, int64(40+c.shape.Order()))
		for _, w := range []int{1, 2, 8} {
			name := fmt.Sprintf("order%d/w=%d", c.shape.Order(), w)
			if got := bitsOf(HOSVDWorkers(x, c.ranks, w)); got != c.hosvd {
				t.Errorf("%s: HOSVD bits %s, want %s", name, got, c.hosvd)
			}
			if got := bitsOf(mustHOOI(t, x, c.ranks, HOOIOptions{Workers: w})); got != c.hooi {
				t.Errorf("%s: HOOI bits %s, want %s", name, got, c.hooi)
			}
		}
	}
}
