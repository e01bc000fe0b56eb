package tensor

import (
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// MultiTTMWorkers is the dense chain MultiTTMSparseWorkers runs after its
// sparse first step, on its own: the mode products applied sequentially,
// ping-ponging between the two workspace slots. Production always enters
// through a sparse tensor; the parity tests and BenchmarkWorkspaceTTMChain
// drive the dense steps directly.
func (w *Workspace) MultiTTMWorkers(x *Dense, ms []*mat.Matrix, workers int) *Dense {
	cur := x
	for n, m := range ms {
		if m == nil {
			continue
		}
		cur = w.TTMWorkers(cur, n, m, workers)
	}
	return cur
}

// chainMatrices builds one factor matrix per mode (rank rows, shape[n]
// cols), with nils where skip says so.
func chainMatrices(rng *rand.Rand, shape Shape, rank int, skip map[int]bool) []*mat.Matrix {
	ms := make([]*mat.Matrix, shape.Order())
	for n := range ms {
		if skip[n] {
			continue
		}
		ms[n] = mat.Random(rng, rank, shape[n])
	}
	return ms
}

func TestWorkspaceTTMParity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	d := randomDense(rng, Shape{7, 6, 5})
	w := NewWorkspace()
	for n := 0; n < d.Shape.Order(); n++ {
		m := mat.Random(rng, 3, d.Shape[n])
		for _, workers := range []int{1, 8} {
			got := w.TTMWorkers(d, n, m, workers)
			want := TTMWorkers(d, n, m, workers)
			bitsEqualDense(t, "Workspace.TTM", got, want)
		}
	}
}

func TestWorkspaceMultiTTMParity(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	shape := Shape{6, 5, 4, 3}
	d := randomDense(rng, shape)
	cases := []map[int]bool{
		nil,
		{0: true},                            // HOOI-style: skip the swept mode
		{2: true},                            //
		{0: true, 3: true},                   //
		{0: true, 1: true, 2: true, 3: true}, // all nil: identity chain
	}
	w := NewWorkspace()
	for ci, skip := range cases {
		ms := chainMatrices(rng, shape, 4, skip)
		for _, workers := range []int{1, 8} {
			got := w.MultiTTMWorkers(d, ms, workers)
			want := MultiTTMWorkers(d, ms, workers)
			if ci == len(cases)-1 {
				// All-nil chain returns the input itself; just check aliasing.
				if got != d {
					t.Fatal("all-nil MultiTTM should return the input tensor")
				}
				continue
			}
			bitsEqualDense(t, "Workspace.MultiTTM", got, want)
		}
	}
}

func TestWorkspaceMultiTTMSparseParity(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	shape := Shape{8, 7, 6, 5}
	s := randomSparse(rng, shape, 300)
	cases := []map[int]bool{
		nil,
		{0: true},
		{1: true, 2: true},
		{0: true, 1: true, 2: true, 3: true}, // all nil: densify
	}
	w := NewWorkspace()
	for _, skip := range cases {
		ms := chainMatrices(rng, shape, 3, skip)
		for _, workers := range []int{1, 8} {
			got := w.MultiTTMSparseWorkers(s, nil, ms, workers)
			want := MultiTTMSparseWorkers(s, ms, workers)
			bitsEqualDense(t, "Workspace.MultiTTMSparse", got, want)
		}
	}
}

// TestWorkspaceResultAliasing documents the contract: a result is only
// valid until the next call, so retained results must be Cloned.
func TestWorkspaceResultAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	d := randomDense(rng, Shape{5, 4, 3})
	m0 := mat.Random(rng, 2, 5)
	m1 := mat.Random(rng, 2, 4)
	w := NewWorkspace()
	first := w.TTMWorkers(d, 0, m0, 1)
	kept := first.Clone()
	second := w.TTMWorkers(d, 1, m1, 1)
	if &second.Data[0] == &kept.Data[0] {
		t.Fatal("Clone did not detach from workspace storage")
	}
	bitsEqualDense(t, "clone-detach", kept, TTMWorkers(d, 0, m0, 1))
	bitsEqualDense(t, "second-result", second, TTMWorkers(d, 1, m1, 1))
}

// TestWorkspaceZeroAllocSteadyState asserts the headline property: after
// warm-up, a full dense TTM chain through the workspace allocates zero
// bytes at workers=1 (the acceptance criterion for steady-state HOOI
// sweeps).
func TestWorkspaceZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	shape := Shape{10, 9, 8, 7}
	d := randomDense(rng, shape)
	ms := chainMatrices(rng, shape, 4, nil)
	w := NewWorkspace()
	// Warm-up sizes the two slots to the largest intermediates.
	_ = w.MultiTTMWorkers(d, ms, 1)
	allocs := testing.AllocsPerRun(10, func() {
		_ = w.MultiTTMWorkers(d, ms, 1)
	})
	if allocs != 0 {
		t.Fatalf("steady-state dense MultiTTM chain allocates %.1f objects/op, want 0", allocs)
	}
	// Single-mode dense TTM is also allocation-free.
	allocs = testing.AllocsPerRun(10, func() {
		_ = w.TTMWorkers(d, 2, ms[2], 1)
	})
	if allocs != 0 {
		t.Fatalf("steady-state dense TTM allocates %.1f objects/op, want 0", allocs)
	}
}

// TestWorkspaceHOOIStyleSweeps drives the workspace the way HOOI does —
// alternating which mode is skipped, sweep after sweep, on the mode-0 and
// mode-1 plans compiled once — and checks every intermediate against the
// allocating path.
func TestWorkspaceHOOIStyleSweeps(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	shape := Shape{7, 6, 5, 4}
	s := randomSparse(rng, shape, 250)
	full := chainMatrices(rng, shape, 3, nil)
	w := NewWorkspace()
	ms := make([]*mat.Matrix, shape.Order())
	plans := []*ModePlan{CompileModePlan(s, 0, 2), CompileModePlan(s, 1, 2), nil, nil}
	for sweep := 0; sweep < 3; sweep++ {
		for n := 0; n < shape.Order(); n++ {
			copy(ms, full)
			ms[n] = nil
			got := w.MultiTTMSparseWorkers(s, plans, ms, 2)
			want := MultiTTMSparseWorkers(s, ms, 2)
			bitsEqualDense(t, "HOOI-style sweep", got, want)
		}
	}
}
