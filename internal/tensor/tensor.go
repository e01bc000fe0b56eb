// Package tensor provides dense and sparse (coordinate-format) N-mode
// tensors plus the tensor algebra kernels required by HOSVD and M2TD:
// mode-n matricization, matricization Gram matrices computed directly from
// sparse coordinates, the mode-n tensor–matrix product (TTM), and Tucker
// reconstruction.
//
// Conventions follow Kolda & Bader, "Tensor Decompositions and
// Applications": the mode-n matricization X(n) has I_n rows, and tensor
// element (i_1, …, i_N) maps to column
//
//	j = Σ_{k≠n} i_k · J_k   with   J_k = Π_{m<k, m≠n} I_m.
//
// Dense tensors store elements in C order (last mode varies fastest).
package tensor

import (
	"fmt"
	"math"
)

// Shape describes the mode sizes of a tensor.
type Shape []int

// NumElements returns the product of the mode sizes.
func (s Shape) NumElements() int {
	n := 1
	for _, d := range s {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative mode size in shape %v", s))
		}
		n *= d
	}
	return n
}

// Order returns the number of modes.
func (s Shape) Order() int { return len(s) }

// Clone returns a copy of the shape.
func (s Shape) Clone() Shape {
	out := make(Shape, len(s))
	copy(out, s)
	return out
}

// Equal reports whether two shapes are identical.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i, d := range s {
		if d != o[i] {
			return false
		}
	}
	return true
}

// Strides returns C-order strides (last mode fastest).
func (s Shape) Strides() []int {
	st := make([]int, len(s))
	acc := 1
	for k := len(s) - 1; k >= 0; k-- {
		st[k] = acc
		acc *= s[k]
	}
	return st
}

// LinearIndex converts a multi-index to the C-order linear index.
func (s Shape) LinearIndex(idx []int) int {
	if len(idx) != len(s) {
		panic(fmt.Sprintf("tensor: index order %d != tensor order %d", len(idx), len(s)))
	}
	lin := 0
	acc := 1
	for k := len(s) - 1; k >= 0; k-- {
		if idx[k] < 0 || idx[k] >= s[k] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, s))
		}
		lin += idx[k] * acc
		acc *= s[k]
	}
	return lin
}

// MultiIndex converts a C-order linear index into dst (which must have
// length equal to the order) and returns it.
func (s Shape) MultiIndex(lin int, dst []int) []int {
	for k := len(s) - 1; k >= 0; k-- {
		dst[k] = lin % s[k]
		lin /= s[k]
	}
	return dst
}

// MatricizeColumn returns the mode-n matricization column index for a
// multi-index, per the Kolda–Bader convention.
func (s Shape) MatricizeColumn(n int, idx []int) int {
	col := 0
	j := 1
	for k := 0; k < len(s); k++ {
		if k == n {
			continue
		}
		col += idx[k] * j
		j *= s[k]
	}
	return col
}

// MatricizeCols returns the number of columns of the mode-n matricization,
// i.e. the product of all mode sizes except mode n.
func (s Shape) MatricizeCols(n int) int {
	cols := 1
	for k, d := range s {
		if k != n {
			cols *= d
		}
	}
	return cols
}

// Dense is a dense N-mode tensor in C order.
type Dense struct {
	Shape Shape
	Data  []float64
}

// NewDense returns a zero dense tensor with the given shape.
func NewDense(shape Shape) *Dense {
	return &Dense{Shape: shape.Clone(), Data: make([]float64, shape.NumElements())}
}

// DenseFromSlice wraps data (not copied) as a dense tensor.
func DenseFromSlice(shape Shape, data []float64) *Dense {
	if len(data) != shape.NumElements() {
		panic(fmt.Sprintf("tensor: data length %d != shape %v elements %d", len(data), shape, shape.NumElements()))
	}
	return &Dense{Shape: shape.Clone(), Data: data}
}

// At returns the element at the multi-index.
func (d *Dense) At(idx ...int) float64 { return d.Data[d.Shape.LinearIndex(idx)] }

// Set assigns the element at the multi-index.
func (d *Dense) Set(v float64, idx ...int) { d.Data[d.Shape.LinearIndex(idx)] = v }

// Clone returns a deep copy.
func (d *Dense) Clone() *Dense {
	out := NewDense(d.Shape)
	copy(out.Data, d.Data)
	return out
}

// Norm returns the Frobenius norm.
func (d *Dense) Norm() float64 {
	var s float64
	for _, v := range d.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Sub returns d - o element-wise. Shapes must match.
func (d *Dense) Sub(o *Dense) *Dense {
	if !d.Shape.Equal(o.Shape) {
		panic(fmt.Sprintf("tensor: Sub shape mismatch %v vs %v", d.Shape, o.Shape))
	}
	out := NewDense(d.Shape)
	for i, v := range d.Data {
		out.Data[i] = v - o.Data[i]
	}
	return out
}

// Add returns d + o element-wise. Shapes must match.
func (d *Dense) Add(o *Dense) *Dense {
	if !d.Shape.Equal(o.Shape) {
		panic(fmt.Sprintf("tensor: Add shape mismatch %v vs %v", d.Shape, o.Shape))
	}
	out := NewDense(d.Shape)
	for i, v := range d.Data {
		out.Data[i] = v + o.Data[i]
	}
	return out
}

// Equal reports whether shapes match and all elements agree within tol.
func (d *Dense) Equal(o *Dense, tol float64) bool {
	if !d.Shape.Equal(o.Shape) {
		return false
	}
	for i, v := range d.Data {
		if math.Abs(v-o.Data[i]) > tol {
			return false
		}
	}
	return true
}

// ToSparse converts to COO format, keeping elements with magnitude above
// eps.
func (d *Dense) ToSparse(eps float64) *Sparse {
	sp := NewSparse(d.Shape)
	idx := make([]int, d.Shape.Order())
	for lin, v := range d.Data {
		if math.Abs(v) <= eps {
			continue
		}
		d.Shape.MultiIndex(lin, idx)
		sp.Append(idx, v)
	}
	return sp
}
