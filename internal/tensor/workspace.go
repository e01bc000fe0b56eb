package tensor

import (
	"fmt"

	"repro/internal/mat"
)

// Workspace holds reusable dense buffers for TTM chains. A MultiTTM chain
// ping-pongs between two slots — step k reads one slot and writes the
// other — so an arbitrarily long chain needs exactly two buffers, each
// sized once to the largest intermediate and reused forever after.
// Steady-state HOOI sweeps therefore allocate zero bytes in the
// dense TTM chain (asserted by testing.AllocsPerRun in the workspace
// tests).
//
// Results returned by Workspace methods ALIAS workspace memory: they are
// valid only until the next call on the same Workspace and must be Cloned
// if retained. A Workspace is not safe for concurrent use (the kernels
// inside a single call still fan out across workers as usual).
type Workspace struct {
	slots   [2]wsSlot
	strides []int
}

// wsSlot is one reusable dense buffer plus its cached header.
type wsSlot struct {
	data  []float64
	shape Shape
	d     Dense
}

// NewWorkspace returns an empty workspace; buffers grow on demand.
func NewWorkspace() *Workspace { return &Workspace{} }

// take returns a Dense of the given shape backed by slot storage, growing
// the buffer if needed. After warm-up this performs no allocation. The
// data is NOT zeroed; callers that accumulate must call zero first.
// modeOverride >= 0 resizes that mode to overrideSize (the TTM output
// shape) without materialising an intermediate Shape.
func (w *Workspace) take(slot int, shape Shape, modeOverride, overrideSize int) *Dense {
	s := &w.slots[slot]
	if cap(s.shape) < len(shape) {
		s.shape = make(Shape, len(shape))
	}
	s.shape = s.shape[:len(shape)]
	copy(s.shape, shape)
	if modeOverride >= 0 {
		s.shape[modeOverride] = overrideSize
	}
	n := s.shape.NumElements()
	if cap(s.data) < n {
		s.data = make([]float64, n)
	}
	s.data = s.data[:n]
	s.d = Dense{Shape: s.shape, Data: s.data}
	return &s.d
}

// outSlotFor picks the slot to write when reading from x: the one x does
// not alias (slot 0 when x is not workspace-backed).
func (w *Workspace) outSlotFor(x *Dense) int {
	if x == &w.slots[0].d {
		return 1
	}
	return 0
}

// takeStrides fills the reusable stride scratch with the C-order strides
// of the given shape.
func (w *Workspace) takeStrides(shape Shape) []int {
	if cap(w.strides) < len(shape) {
		w.strides = make([]int, len(shape))
	}
	w.strides = w.strides[:len(shape)]
	acc := 1
	for k := len(shape) - 1; k >= 0; k-- {
		w.strides[k] = acc
		acc *= shape[k]
	}
	return w.strides
}

// zero clears a workspace-backed tensor for accumulation.
func zero(d *Dense) {
	for i := range d.Data {
		d.Data[i] = 0
	}
}

// TTMWorkers computes the mode-n dense TTM into workspace memory. The
// result aliases the workspace. Results are bit-identical to the
// allocating TTMWorkers for any worker count.
func (w *Workspace) TTMWorkers(x *Dense, n int, m *mat.Matrix, workers int) *Dense {
	if m.Cols != x.Shape[n] {
		panic(fmt.Sprintf("tensor: Workspace TTM mode %d size %d != matrix cols %d", n, x.Shape[n], m.Cols))
	}
	out := w.take(w.outSlotFor(x), x.Shape, n, m.Rows)
	ttmDenseKernel(x, n, m, out, workers)
	return out
}

// MultiTTMSparseWorkers applies all mode products to a sparse tensor into
// workspace memory: the first non-nil matrix consumes the sparse input,
// the rest proceed densely, ping-ponging between the two slots. With all
// matrices nil the tensor is densified into a workspace slot. The result
// aliases the workspace. Results are bit-identical to the allocating
// MultiTTMSparseWorkers for any worker count.
//
// plans, when non-nil, holds the caller's compiled mode plans of x, indexed
// by mode (nil entries allowed): the sparse product on mode n runs
// group-parallel on plans[n] when it is there, the entry scatter otherwise
// (see ttmSparseKernel). A caller that repeats products on one tensor —
// HOOI's sweeps — compiles the plans once and passes them to every call.
func (w *Workspace) MultiTTMSparseWorkers(x *Sparse, plans []*ModePlan, ms []*mat.Matrix, workers int) *Dense {
	if len(ms) != x.Order() {
		panic(fmt.Sprintf("tensor: MultiTTMSparse got %d matrices for order-%d tensor", len(ms), x.Order()))
	}
	start := -1
	for n, m := range ms {
		if m != nil {
			start = n
			break
		}
	}
	if start == -1 {
		out := w.take(0, x.Shape, -1, 0)
		zero(out)
		o := x.Order()
		for e := 0; e < x.NNZ(); e++ {
			out.Data[x.Shape.LinearIndex(x.Idx[e*o:(e+1)*o])] += x.Vals[e]
		}
		return out
	}
	m := ms[start]
	if m.Cols != x.Shape[start] {
		panic(fmt.Sprintf("tensor: Workspace TTMSparse mode %d size %d != matrix cols %d", start, x.Shape[start], m.Cols))
	}
	var p *ModePlan
	if start < len(plans) {
		p = plans[start]
	}
	cur := w.take(0, x.Shape, start, m.Rows)
	zero(cur)
	ttmSparseKernel(x, p, start, m, cur, w.takeStrides(cur.Shape), workers)
	for n := start + 1; n < len(ms); n++ {
		if ms[n] == nil {
			continue
		}
		cur = w.TTMWorkers(cur, n, ms[n], workers)
	}
	return cur
}
