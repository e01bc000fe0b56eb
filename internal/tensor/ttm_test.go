package tensor

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mat"
	"repro/internal/parallel"
)

// naiveTTM is a reference implementation via matricization:
// Y(n) = M · X(n).
func naiveTTM(x *Dense, n int, m *mat.Matrix) *Dense {
	xm := Matricize(x, n)
	ym := mat.Mul(m, xm)
	outShape := x.Shape.Clone()
	outShape[n] = m.Rows
	return foldRef(ym, n, outShape)
}

func TestTTMAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	shapes := []Shape{{4}, {3, 5}, {3, 4, 2}, {2, 3, 4, 2}}
	for _, shape := range shapes {
		x := randomDense(rng, shape)
		for n := 0; n < shape.Order(); n++ {
			m := mat.Random(rng, 2, shape[n])
			got := TTM(x, n, m)
			want := naiveTTM(x, n, m)
			if !got.Equal(want, 1e-10) {
				t.Errorf("shape %v mode %d: TTM disagrees with matricized product", shape, n)
			}
		}
	}
}

func TestTTMIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	x := randomDense(rng, Shape{3, 4, 2})
	for n := 0; n < 3; n++ {
		if !TTM(x, n, mat.Identity(x.Shape[n])).Equal(x, 1e-14) {
			t.Errorf("TTM by identity changed the tensor (mode %d)", n)
		}
	}
}

func TestTTMShapeMismatchPanics(t *testing.T) {
	x := NewDense(Shape{2, 3})
	defer func() {
		if recover() == nil {
			t.Fatal("TTM with wrong matrix cols did not panic")
		}
	}()
	TTM(x, 0, mat.New(2, 5))
}

// onlyMode returns an order-length chain holding m on mode n and nil
// elsewhere: MultiTTMSparseWorkers over it is the one product X ×ₙ M.
func onlyMode(order, n int, m *mat.Matrix) []*mat.Matrix {
	ms := make([]*mat.Matrix, order)
	ms[n] = m
	return ms
}

func TestTTMSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shape := Shape{4, 3, 5}
	s := randomSparse(rng, shape, 25)
	d := s.ToDense()
	for n := 0; n < shape.Order(); n++ {
		m := mat.Random(rng, 2, shape[n])
		if !MultiTTMSparseWorkers(s, onlyMode(shape.Order(), n, m), 0).Equal(TTM(d, n, m), 1e-10) {
			t.Errorf("mode %d: TTMSparse != TTM", n)
		}
	}
}

func TestTTMSparseShapeMismatchPanics(t *testing.T) {
	s := NewSparse(Shape{2, 3})
	defer func() {
		if recover() == nil {
			t.Fatal("TTMSparse with wrong matrix cols did not panic")
		}
	}()
	MultiTTMSparseWorkers(s, onlyMode(2, 1, mat.New(2, 2)), 0)
}

func TestMultiTTM(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	shape := Shape{3, 4, 2}
	x := randomDense(rng, shape)
	ms := []*mat.Matrix{
		mat.Random(rng, 2, 3),
		mat.Random(rng, 2, 4),
		mat.Random(rng, 2, 2),
	}
	got := MultiTTM(x, ms)
	want := TTM(TTM(TTM(x, 0, ms[0]), 1, ms[1]), 2, ms[2])
	if !got.Equal(want, 1e-10) {
		t.Fatal("MultiTTM disagrees with sequential TTM")
	}
	// nil skips a mode.
	got2 := MultiTTM(x, []*mat.Matrix{nil, ms[1], nil})
	want2 := TTM(x, 1, ms[1])
	if !got2.Equal(want2, 1e-12) {
		t.Fatal("MultiTTM with nil entries broken")
	}
}

func TestMultiTTMSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	shape := Shape{3, 4, 2}
	s := randomSparse(rng, shape, 10)
	ms := []*mat.Matrix{
		mat.Random(rng, 2, 3),
		mat.Random(rng, 3, 4),
		mat.Random(rng, 2, 2),
	}
	if !MultiTTMSparse(s, ms).Equal(MultiTTM(s.ToDense(), ms), 1e-10) {
		t.Fatal("MultiTTMSparse != MultiTTM on densified input")
	}
	// All-nil returns densified input.
	if !MultiTTMSparse(s, []*mat.Matrix{nil, nil, nil}).Equal(s.ToDense(), 0) {
		t.Fatal("MultiTTMSparse with all nil should densify")
	}
	// Leading nil, then matrices.
	got := MultiTTMSparse(s, []*mat.Matrix{nil, ms[1], ms[2]})
	want := TTM(TTM(s.ToDense(), 1, ms[1]), 2, ms[2])
	if !got.Equal(want, 1e-10) {
		t.Fatal("MultiTTMSparse with leading nil broken")
	}
}

func TestMultiTTMWrongCountPanics(t *testing.T) {
	x := NewDense(Shape{2, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("MultiTTM with wrong factor count did not panic")
		}
	}()
	MultiTTM(x, []*mat.Matrix{nil})
}

func TestTuckerReconstructExact(t *testing.T) {
	// Build X = G ×1 U1 ×2 U2 ×3 U3 for random orthonormal U; recovering the
	// core via Uᵀ and reconstructing must reproduce X exactly.
	rng := rand.New(rand.NewSource(45))
	core := randomDense(rng, Shape{2, 3, 2})
	us := []*mat.Matrix{
		mat.RandomOrthonormal(rng, 5, 2),
		mat.RandomOrthonormal(rng, 6, 3),
		mat.RandomOrthonormal(rng, 4, 2),
	}
	x := TuckerReconstruct(core, us)
	coreBack := MultiTTM(x, TransposeAll(us))
	if !coreBack.Equal(core, 1e-9) {
		t.Fatal("core recovery through orthonormal factors failed")
	}
	xBack := TuckerReconstruct(coreBack, us)
	if !xBack.Equal(x, 1e-9) {
		t.Fatal("Tucker reconstruct roundtrip failed")
	}
}

func TestTransposeAll(t *testing.T) {
	ms := []*mat.Matrix{mat.New(2, 3), nil, mat.New(4, 1)}
	ts := TransposeAll(ms)
	if ts[0].Rows != 3 || ts[0].Cols != 2 || ts[1] != nil || ts[2].Rows != 1 {
		t.Fatal("TransposeAll broken")
	}
}

// Property: TTM commutes across distinct modes:
// (X ×m A) ×n B == (X ×n B) ×m A for m != n.
func TestTTMCommutesQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randomDense(rng, Shape{3, 4, 2})
		a := mat.Random(rng, 2, 3)
		b := mat.Random(rng, 3, 4)
		lhs := TTM(TTM(x, 0, a), 1, b)
		rhs := TTM(TTM(x, 1, b), 0, a)
		return lhs.Equal(rhs, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(46))}); err != nil {
		t.Error(err)
	}
}

// Property: same-mode TTM composes: (X ×n A) ×n B == X ×n (B·A).
func TestTTMComposesQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := randomDense(rng, Shape{4, 3})
		a := mat.Random(rng, 3, 4) // mode-0: 4 -> 3
		b := mat.Random(rng, 2, 3) // mode-0: 3 -> 2
		lhs := TTM(TTM(x, 0, a), 0, b)
		rhs := TTM(x, 0, mat.Mul(b, a))
		return lhs.Equal(rhs, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(47))}); err != nil {
		t.Error(err)
	}
}

// TestTTMSparseOneShotSkipsPlanCompile: the sparse product compiles
// nothing and runs one entry scatter, so it gives the same bits at every
// fan-out cap and worker count.
func TestTTMSparseOneShotSkipsPlanCompile(t *testing.T) {
	base := seededSparse(Shape{12, 11, 10, 9}, 8192, 31)
	m := mat.Random(rand.New(rand.NewSource(31)), 4, base.Shape[0])
	ms := onlyMode(base.Order(), 0, m)
	want := MultiTTMSparseWorkers(base, ms, 1)

	for _, fanoutCap := range []int{1, 2, 8} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("cap=%d/workers=%d", fanoutCap, workers), func(t *testing.T) {
				prev := parallel.SetFanoutCap(fanoutCap)
				defer parallel.SetFanoutCap(prev)
				bitsEqualDense(t, "scatter TTMSparse", want, MultiTTMSparseWorkers(base, ms, workers))
			})
		}
	}
}
