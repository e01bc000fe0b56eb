package m2td

// Integration tests exercising flows that cross module boundaries:
// pipeline → store → reload, CP vs Tucker on real ensemble tensors, and
// HOOI refinement of conventionally sampled ensembles.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/ensemble"
	"repro/internal/eval"
	"repro/internal/stitch"
	"repro/internal/store"
	"repro/internal/tucker"
)

func TestPipelinePersistsAndReloads(t *testing.T) {
	// Run the pipeline, persist the join tensor and its decomposition in
	// the block store, reload both, and verify the reconstruction is
	// unchanged. The default run builds no join, so the one persisted here
	// is stitched on request from the run's partition.
	report, err := RunCtx(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.SaveSparse("join", report.Decomposition.Join); err == nil {
		t.Fatal("the default run's nil join was accepted by the store")
	}
	if err := st.SaveSparse("join", stitch.Join(report.Partition)); err != nil {
		t.Fatal(err)
	}
	dec := tucker.Decomposition{
		Core:    report.Decomposition.Core,
		Factors: report.Decomposition.Factors,
		Ranks:   make([]int, len(report.Decomposition.Factors)),
	}
	for i, f := range dec.Factors {
		dec.Ranks[i] = f.Cols
	}
	if err := st.SaveDecomposition("dec", dec); err != nil {
		t.Fatal(err)
	}

	join, err := st.LoadSparse("join")
	if err != nil {
		t.Fatal(err)
	}
	if join.NNZ() != report.JoinCells {
		t.Fatalf("reloaded join NNZ %d != %d", join.NNZ(), report.JoinCells)
	}
	reloaded, err := st.LoadDecomposition("dec")
	if err != nil {
		t.Fatal(err)
	}
	if !reloaded.Reconstruct().Equal(report.Decomposition.Reconstruct(), 1e-12) {
		t.Fatal("reconstruction changed across store roundtrip")
	}
}

func TestHOOIRefinesEnsembleDecomposition(t *testing.T) {
	// HOOI must never be worse than HOSVD on the sampled ensemble itself
	// (measured against the sampled tensor, where the fit identity holds).
	space, err := eval.SpaceFor("lorenz", 6, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	se, _, err := ensemble.EncodeCtx(context.Background(), space, ensemble.RandomSample(space, 80, rng), ensemble.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ranks := tucker.UniformRanks(space.Order(), 2)

	hosvd := tucker.HOSVD(se.Tensor, ranks)
	hooi, err := tucker.HOOICtx(context.Background(), se.Tensor, ranks, tucker.HOOIOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fitHOSVD, err := tucker.FitOf(hosvd, se.Tensor)
	if err != nil {
		t.Fatal(err)
	}
	fitHOOI, err := tucker.FitOf(hooi, se.Tensor)
	if err != nil {
		t.Fatal(err)
	}
	if fitHOOI < fitHOSVD-1e-9 {
		t.Fatalf("HOOI fit %v worse than HOSVD %v", fitHOOI, fitHOSVD)
	}
}

func TestFacadeMatchesEvalComparison(t *testing.T) {
	// The facade's Run/Baseline must agree with the eval harness's
	// RunComparison on the same configuration and seeds.
	cfg := smallConfig()
	evalCfg := eval.Config{
		System:      string(cfg.System),
		Res:         cfg.Resolution,
		TimeSamples: cfg.TimeSamples,
		Rank:        cfg.Rank,
		Pivot:       4,
		PivotFrac:   1,
		FreeFrac:    1,
		Seed:        cfg.Seed,
	}
	cmp, err := eval.RunComparison(context.Background(), evalCfg)
	if err != nil {
		t.Fatal(err)
	}
	report, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := cmp.Get(eval.SchemeSELECT)
	if math.Abs(report.Accuracy-want.Accuracy) > 1e-9 {
		t.Fatalf("facade accuracy %v != eval harness %v", report.Accuracy, want.Accuracy)
	}
	if report.NumSims != want.NumSims {
		t.Fatalf("facade sims %d != eval %d", report.NumSims, want.NumSims)
	}
}
