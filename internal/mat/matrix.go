// Package mat provides dense matrix types and the linear-algebra kernels
// required by tensor decomposition: matrix products, Gram matrices and a
// cyclic Jacobi symmetric eigensolver. A one-sided Jacobi SVD is kept as
// the oracle the tests of the Gram route compare against.
//
// The package is self-contained (standard library only) and tuned for the
// matrix shapes that arise in HOSVD of ensemble tensors: factor matrices are
// short and wide or tall and thin with both dimensions at most a few
// hundred, so O(n^3) dense algorithms with good numerical robustness (Jacobi
// methods) are preferred over blocked or randomized schemes.
//
// All matrices are row-major, addressed as Data[i*Cols+j].
package mat

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zero-initialised r×c matrix.
func New(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %d×%d", r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// FromSlice wraps the given backing slice (not copied) as an r×c matrix.
// len(data) must equal r*c.
func FromSlice(r, c int, data []float64) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: FromSlice data length %d != %d×%d", len(data), r, c))
	}
	return &Matrix{Rows: r, Cols: c, Data: data}
}

// FromRows builds a matrix from row slices. All rows must share one length.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("mat: ragged row %d: len %d != %d", i, len(row), c))
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// SetRow copies v into row i.
func (m *Matrix) SetRow(i int, v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("mat: SetRow length %d != cols %d", len(v), m.Cols))
	}
	copy(m.Row(i), v)
}

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	out := New(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// IsSquare reports whether the matrix is square.
func (m *Matrix) IsSquare() bool { return m.Rows == m.Cols }

// Equal reports whether two matrices have identical shape and all entries
// within tol of each other.
func (m *Matrix) Equal(o *Matrix, tol float64) bool {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		return false
	}
	for i, v := range m.Data {
		if math.Abs(v-o.Data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging; large matrices are elided.
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Matrix(%d×%d)", m.Rows, m.Cols)
	if m.Rows*m.Cols > 100 {
		return b.String()
	}
	b.WriteString("[\n")
	for i := 0; i < m.Rows; i++ {
		b.WriteString("  ")
		for j := 0; j < m.Cols; j++ {
			fmt.Fprintf(&b, "% .4g ", m.At(i, j))
		}
		b.WriteString("\n")
	}
	b.WriteString("]")
	return b.String()
}

// FirstColumns returns a copy of the leading k columns. If k exceeds the
// column count, the result is zero-padded on the right; this is the shape
// contract HOSVD relies on when a requested rank exceeds a mode size.
func (m *Matrix) FirstColumns(k int) *Matrix {
	out := New(m.Rows, k)
	kc := k
	if m.Cols < kc {
		kc = m.Cols
	}
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i)[:kc], m.Row(i)[:kc])
	}
	return out
}
