package distnet

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/tucker"
)

func sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d is %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestDistNetBitIdenticalToReferencePhases pins the engine's output to the
// last bit against the in-process executor of the same phase bodies
// (dist.Decompose at Workers = Shards, itself pinned to the per-group
// stitch oracle in internal/dist): the data plane — store round-trips,
// frames, leases — must move nothing. The join's cell order, and with it
// the core's summation order, are part of the engine's contract (a WorkDir
// resumes across versions, accuracy is a pure function of the seed).
func TestDistNetBitIdenticalToReferencePhases(t *testing.T) {
	ranks := tucker.UniformRanks(5, 2)
	type arm struct {
		method   core.Method
		zero     bool
		freeFrac float64
	}
	arms := []arm{{core.SELECT, true, 0.4}}
	for _, m := range core.Methods() {
		arms = append(arms, arm{m, false, 1})
	}
	for _, a := range arms {
		t.Run(fmt.Sprintf("%s/zero=%v", a.method, a.zero), func(t *testing.T) {
			p := tinyPartition(t, a.freeFrac, 228)
			for _, shards := range []int{1, 3, 4} {
				got := runDistNet(t, p, Options{Method: a.method, Ranks: ranks, ZeroJoin: a.zero, Workers: 2, Shards: shards})
				want, err := dist.Decompose(p, dist.Options{
					Options: core.Options{Method: a.method, Ranks: ranks, ZeroJoin: a.zero},
					Workers: shards,
				})
				if err != nil {
					t.Fatal(err)
				}

				if !slices.Equal(got.Join.Idx, want.Join.Idx) {
					t.Fatalf("shards=%d: join cell order differs", shards)
				}
				sameBits(t, fmt.Sprintf("shards=%d join values", shards), got.Join.Vals, want.Join.Vals)
				if cap(got.Join.Vals) != len(got.Join.Vals) {
					t.Fatalf("shards=%d: merged join not sized exactly: %d cells, cap %d", shards, len(got.Join.Vals), cap(got.Join.Vals))
				}
				sameBits(t, fmt.Sprintf("shards=%d core", shards), got.Core.Data, want.Core.Data)
				for m := range want.Factors {
					sameBits(t, fmt.Sprintf("shards=%d factor %d", shards, m), got.Factors[m].Data, want.Factors[m].Data)
				}
			}
		})
	}
}
