package dist

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dynsys"
	"repro/internal/ensemble"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/tensor"
	"repro/internal/tucker"
)

var doublePendulumPairs = [][2]int{{0, 2}, {1, 3}}

func tinyPartition(t *testing.T, freeFrac float64, seed int64) *partition.Result {
	t.Helper()
	space := ensemble.NewSpace(dynsys.NewDoublePendulum(), 5, 4)
	cfg := partition.DefaultConfig(5, 4, doublePendulumPairs)
	cfg.FreeFrac = freeFrac
	res, err := partition.Generate(space, cfg, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDistributedMatchesSerial(t *testing.T) {
	p := tinyPartition(t, 1, 120)
	ranks := tucker.UniformRanks(5, 3)
	for _, m := range core.Methods() {
		serial, err := core.Decompose(p, core.Options{Method: m, Ranks: ranks})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 8} {
			d, err := Decompose(p, Options{
				Options: core.Options{Method: m, Ranks: ranks},
				Workers: workers,
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", m, workers, err)
			}
			if d.Join.NNZ() != serial.Join.NNZ() {
				t.Fatalf("%s workers=%d: join NNZ %d != serial %d", m, workers, d.Join.NNZ(), serial.Join.NNZ())
			}
			if !d.Core.Equal(serial.Core, 1e-9) {
				t.Fatalf("%s workers=%d: distributed core differs from serial", m, workers)
			}
			for mode := range d.Factors {
				if !d.Factors[mode].Equal(serial.Factors[mode], 1e-9) {
					t.Fatalf("%s workers=%d: factor %d differs", m, workers, mode)
				}
			}
		}
	}
}

func TestDistributedZeroJoinMatchesSerial(t *testing.T) {
	p := tinyPartition(t, 0.4, 121)
	ranks := tucker.UniformRanks(5, 2)
	serial, err := core.Decompose(p, core.Options{Method: core.SELECT, Ranks: ranks, ZeroJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Decompose(p, Options{
		Options: core.Options{Method: core.SELECT, Ranks: ranks, ZeroJoin: true},
		Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Join.NNZ() != serial.Join.NNZ() {
		t.Fatalf("zero-join NNZ %d != serial %d", d.Join.NNZ(), serial.Join.NNZ())
	}
	if !d.Core.Equal(serial.Core, 1e-9) {
		t.Fatal("distributed zero-join core differs from serial")
	}
}

func TestDistributedDeterministicAcrossRuns(t *testing.T) {
	p := tinyPartition(t, 1, 122)
	ranks := tucker.UniformRanks(5, 2)
	opts := Options{Options: core.Options{Method: core.SELECT, Ranks: ranks}, Workers: 4}
	a, err := Decompose(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Decompose(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Core.Equal(b.Core, 0) {
		t.Fatal("repeated distributed runs differ bit-for-bit")
	}
}

func TestDistributedPhaseStats(t *testing.T) {
	p := tinyPartition(t, 1, 123)
	d, err := Decompose(p, Options{
		Options: core.Options{Method: core.SELECT, Ranks: tucker.UniformRanks(5, 2)},
		Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range []struct {
		name  string
		total int64
	}{
		{"phase1", int64(d.Phase1.Total())},
		{"phase2", int64(d.Phase2.Total())},
		{"phase3", int64(d.Phase3.Total())},
	} {
		if st.total <= 0 {
			t.Fatalf("phase %d (%s) has no recorded time", i+1, st.name)
		}
	}
}

func TestDistributedRejectsBadOptions(t *testing.T) {
	p := tinyPartition(t, 1, 124)
	if _, err := Decompose(p, Options{Options: core.Options{Method: "nope", Ranks: tucker.UniformRanks(5, 2)}}); err == nil {
		t.Fatal("unknown method accepted")
	}
	if _, err := Decompose(p, Options{Options: core.Options{Method: core.AVG, Ranks: []int{1}}}); err == nil {
		t.Fatal("bad rank count accepted")
	}
}

func TestDistributedReconstructionAccuracy(t *testing.T) {
	// End-to-end: the distributed pipeline's reconstruction must
	// approximate the ground truth (relative error < 1).
	p := tinyPartition(t, 1, 125)
	d, err := Decompose(p, Options{
		Options: core.Options{Method: core.SELECT, Ranks: tucker.UniformRanks(5, 3)},
		Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	y := p.Space.GroundTruth()
	relErr := d.Reconstruct().Sub(y).Norm() / y.Norm()
	if relErr >= 1 {
		t.Fatalf("distributed reconstruction relative error %v", relErr)
	}
}

func TestFiberPhase3MatchesDefault(t *testing.T) {
	p := tinyPartition(t, 1, 126)
	ranks := tucker.UniformRanks(5, 3)
	def, err := Decompose(p, Options{
		Options: core.Options{Method: core.SELECT, Ranks: ranks},
		Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	fib, err := Decompose(p, Options{
		Options:     core.Options{Method: core.SELECT, Ranks: ranks},
		Workers:     4,
		FiberPhase3: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !fib.Core.Equal(def.Core, 1e-9) {
		t.Fatal("fiber-shuffled Phase 3 differs from cell-sharded Phase 3")
	}
	serial, err := core.Decompose(p, core.Options{Method: core.SELECT, Ranks: ranks})
	if err != nil {
		t.Fatal(err)
	}
	if !fib.Core.Equal(serial.Core, 1e-9) {
		t.Fatal("fiber-shuffled Phase 3 differs from serial core")
	}
}

func TestFiberPhase3AcrossWorkerCounts(t *testing.T) {
	p := tinyPartition(t, 0.5, 127)
	ranks := tucker.UniformRanks(5, 2)
	var first *Result
	for _, w := range []int{1, 3, 7} {
		res, err := Decompose(p, Options{
			Options:     core.Options{Method: core.AVG, Ranks: ranks, ZeroJoin: true},
			Workers:     w,
			FiberPhase3: true,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if first == nil {
			first = res
			continue
		}
		if !res.Core.Equal(first.Core, 1e-9) {
			t.Fatalf("workers=%d: core differs", w)
		}
	}
}

// TestDistributedShardsStayPlanFree pins the sparse-TTM dispatch rule on
// the D-M2TD path: kernel plans are compiled by the Phase 1 Gram steps —
// one per sub-tensor mode — and by nothing else. The Phase 3 shard
// tensors and the join are one-shot TTM inputs, so with real fan-out
// available and shards past the planned-path size gate (4096 cells) they
// must add no build, whatever the shard count.
func TestDistributedShardsStayPlanFree(t *testing.T) {
	prev := parallel.SetFanoutCap(8)
	defer parallel.SetFanoutCap(prev)

	space := ensemble.NewSpace(dynsys.NewDoublePendulum(), 7, 4)
	cfg := partition.DefaultConfig(5, 4, doublePendulumPairs)
	p, err := partition.Generate(space, cfg, rand.New(rand.NewSource(131)))
	if err != nil {
		t.Fatal(err)
	}
	gramPlans := int64(p.Sub1.Tensor.Order() + p.Sub2.Tensor.Order())
	opts := Options{Options: core.Options{Method: core.SELECT, Ranks: tucker.UniformRanks(5, 3)}}
	for _, workers := range []int{1, 2} {
		opts.Workers = workers
		builds0, _ := tensor.PlanCacheStats()
		d, err := Decompose(p, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		builds1, _ := tensor.PlanCacheStats()
		if shard := d.Join.NNZ() / workers; shard < 4096 {
			t.Fatalf("workers=%d: %d cells per shard, too few to reach the planned-path size gate", workers, shard)
		}
		if got := builds1 - builds0; got != gramPlans {
			t.Fatalf("workers=%d: %d plans compiled, want %d (Phase 1 Gram steps only)", workers, got, gramPlans)
		}
		if builds, hits := d.Join.PlanStats(); builds != 0 || hits != 0 {
			t.Fatalf("workers=%d: join plan cache touched: %d builds, %d hits", workers, builds, hits)
		}
	}
}
