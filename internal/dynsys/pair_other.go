//go:build !amd64

package dynsys

import "repro/internal/ode"

// cellsPair is the scalar kernel twice: only amd64 has the packed one.
func (dp *DoublePendulum) cellsPair(w *ode.Workspace, a, b []float64, ref [][]float64, dstA, dstB []float64) {
	dp.cells(w, a, ref, dstA)
	dp.cells(w, b, ref, dstB)
}
