// Package quarantine is the backing-slice golden package. It imports the
// real repro/internal/tensor package, so the analyzer's type-identity
// matching (Sparse.Vals/Idx) is exercised against the actual type — and
// the lookalike struct below proves the match is by type, not by field
// name.
package quarantine

import "repro/internal/tensor"

// positive: direct writes to tensor backing slices outside
// internal/tensor bypass the quarantine.

func writeVals(sp *tensor.Sparse) {
	sp.Vals[0] = 1 // want `\[quarantine\] direct write to Sparse\.Vals`
}

func bumpVals(sp *tensor.Sparse) {
	sp.Vals[0] += 2 // want `\[quarantine\] direct write to Sparse\.Vals`
}

func incVals(sp *tensor.Sparse) {
	sp.Vals[0]++ // want `\[quarantine\] direct write to Sparse\.Vals`
}

func reassignIdx(sp *tensor.Sparse) {
	sp.Idx = sp.Idx[:0] // want `\[quarantine\] direct write to Sparse\.Idx`
}

func copyInto(sp *tensor.Sparse, src []float64) {
	copy(sp.Vals, src) // want `\[quarantine\] copy into Sparse\.Vals`
}

// negative: reads, iteration, copying OUT of a backing slice, and the
// quarantine-checked setters.

func readVals(sp *tensor.Sparse) float64 {
	var s float64
	for _, v := range sp.Vals {
		s += v
	}
	return s + sp.Vals[0]
}

func appendCell(sp *tensor.Sparse) {
	sp.Append([]int{0, 0}, 1.5)
}

func copyOut(sp *tensor.Sparse, dst []float64) {
	copy(dst, sp.Vals)
}

// negative: same-named fields on unrelated types are not tensor backing
// slices (type-identity, not name, drives the match).

type lookalike struct {
	Vals []float64
}

func writeLookalike(l *lookalike) {
	l.Vals[0] = 1
}

// suppression: a kernel write carrying its finiteness proof.

func annotatedWrite(sp *tensor.Sparse) {
	//lint:allow quarantine -- golden suppression case: the literal is finite
	sp.Vals[0] = 3
}
