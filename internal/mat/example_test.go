package mat_test

import (
	"fmt"

	"repro/internal/mat"
)

func ExampleMul() {
	a := mat.FromRows([][]float64{{1, 2}, {3, 4}})
	b := mat.FromRows([][]float64{{5, 6}, {7, 8}})
	c := mat.Mul(a, b)
	fmt.Println(c.Row(0), c.Row(1))
	// Output: [19 22] [43 50]
}

func ExampleSVD() {
	// diag(3, 2) embedded in a tall matrix: singular values 3 and 2.
	a := mat.FromRows([][]float64{{3, 0}, {0, 2}, {0, 0}})
	r := mat.SVD(a)
	fmt.Printf("%.0f %.0f\n", r.Values[0], r.Values[1])
	// Output: 3 2
}

func ExampleRowNorm() {
	// The "energy" M2TD-SELECT uses to pick factor rows.
	u := mat.FromRows([][]float64{{3, 4}})
	fmt.Println(mat.RowNorm(u, 0))
	// Output: 5
}
