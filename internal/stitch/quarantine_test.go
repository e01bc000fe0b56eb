package stitch

import (
	"math"
	"testing"
)

// TestJoinPropagatesQuarantine verifies the divergence quarantine survives
// stitching: when a sub-ensemble rejects non-finite cells, the join tensor
// does too, so a NaN written directly into a sub-tensor's storage (past
// the ingest guard) is dropped at emission instead of averaging into the
// shared pivots.
func TestJoinPropagatesQuarantine(t *testing.T) {
	res := tinyResult(t, 1, 97)
	if !res.Sub1.Tensor.RejectNonFinite || !res.Sub2.Tensor.RejectNonFinite {
		t.Fatalf("Generate no longer arms the quarantine on sub-tensors")
	}

	clean := Join(res)

	// Poison one sub-1 entry behind the guard. Every matched pair built
	// from it would average to NaN.
	res.Sub1.Tensor.Vals[0] = math.NaN()

	j := Join(res)
	if !j.RejectNonFinite {
		t.Fatalf("join tensor did not inherit RejectNonFinite")
	}
	if j.Rejected == 0 {
		t.Fatalf("poisoned pairs were not quarantined")
	}
	for _, v := range j.Vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite value %v stored in join tensor", v)
		}
	}
	if j.NNZ()+j.Rejected != clean.NNZ() {
		t.Fatalf("quarantine accounting off: %d stored + %d rejected != %d clean cells",
			j.NNZ(), j.Rejected, clean.NNZ())
	}
}

// TestZeroJoinPropagatesQuarantine does the same for the zero-join: the
// poisoned cell's zero-join extensions (v/2) are quarantined too.
func TestZeroJoinPropagatesQuarantine(t *testing.T) {
	res := tinyResult(t, 0.5, 98)
	clean := ZeroJoin(res)

	res.Sub2.Tensor.Vals[0] = math.Inf(1)

	j := ZeroJoin(res)
	if j.Rejected == 0 {
		t.Fatalf("poisoned cells were not quarantined")
	}
	for _, v := range j.Vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("non-finite value %v stored in zero-join tensor", v)
		}
	}
	if j.NNZ()+j.Rejected != clean.NNZ() {
		t.Fatalf("quarantine accounting off: %d stored + %d rejected != %d clean cells",
			j.NNZ(), j.Rejected, clean.NNZ())
	}
}
