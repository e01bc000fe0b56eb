package m2td

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/tucker"
)

// sketchConfig is smallConfig with the sketch fast path enabled.
func sketchConfig(keep float64) Config {
	cfg := smallConfig()
	cfg.Sketch = SketchConfig{KeepFrac: keep}
	return cfg
}

func TestRunSketchRoundTrip(t *testing.T) {
	report, err := RunCtx(context.Background(), sketchConfig(0.5))
	if err != nil {
		t.Fatal(err)
	}
	st := report.SketchStats
	if st == nil {
		t.Fatal("SketchStats missing from a sketched run")
	}
	if st.KeepFrac != 0.5 {
		t.Fatalf("KeepFrac = %v, want 0.5", st.KeepFrac)
	}
	if st.Seed != 7 {
		t.Fatalf("Seed = %v, want the Config.Seed default 7", st.Seed)
	}
	for name, s := range map[string]struct{ in, kept int }{
		"sub1": {st.Sub1.InputNNZ, st.Sub1.Kept},
		"sub2": {st.Sub2.InputNNZ, st.Sub2.Kept},
		"join": {st.Join.InputNNZ, st.Join.Kept},
	} {
		if s.in <= 0 || s.kept <= 0 || s.kept > s.in {
			t.Fatalf("%s sketch stats out of range: kept %d of %d", name, s.kept, s.in)
		}
	}
	// JoinCells still reports the full stitched join, not the sketch.
	if report.JoinCells != st.Join.InputNNZ {
		t.Fatalf("JoinCells = %d, want the full join nnz %d", report.JoinCells, st.Join.InputNNZ)
	}
	if math.IsNaN(report.Accuracy) || report.Accuracy >= 1 {
		t.Fatalf("accuracy = %v", report.Accuracy)
	}
}

// TestRunSketchKeepAllMatchesPlain: a full-keep sketch is the unsketched
// materialising decomposition to the bit (a sketch run always builds the
// join), and agrees with the default join-free run up to summation order.
func TestRunSketchKeepAllMatchesPlain(t *testing.T) {
	plain, err := RunCtx(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	full, err := RunCtx(context.Background(), sketchConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(plain.Accuracy-full.Accuracy) > 1e-9 {
		t.Fatalf("KeepFrac=1 accuracy %v != plain %v", full.Accuracy, plain.Accuracy)
	}
	joined, err := core.DecomposeCtx(context.Background(), plain.Partition, core.Options{
		Method: core.SELECT, Ranks: tucker.UniformRanks(plain.Space.Order(), smallConfig().Rank),
	})
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "KeepFrac=1 vs unsketched materialised", full.Decomposition, joined)
	st := full.SketchStats
	if st == nil || st.Join.Kept != st.Join.InputNNZ || st.Join.Dropped() != 0 {
		t.Fatalf("KeepFrac=1 should report a full keep, got %+v", st)
	}
}

func TestRunSketchBitStableAcrossParallel(t *testing.T) {
	run := func(parallel int) *Report {
		cfg := sketchConfig(0.3)
		cfg.SkipAccuracy = true
		cfg.Parallel = parallel
		report, err := RunCtx(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return report
	}
	serial := run(1)
	for _, p := range []int{2, 3} {
		got := run(p)
		if *got.SketchStats != *serial.SketchStats {
			t.Fatalf("Parallel=%d sketch stats %+v != serial %+v", p, got.SketchStats, serial.SketchStats)
		}
		for i, v := range serial.Decomposition.Core.Data {
			if math.Float64bits(v) != math.Float64bits(got.Decomposition.Core.Data[i]) {
				t.Fatalf("Parallel=%d sketched core differs from serial at cell %d", p, i)
			}
		}
	}
}

func TestRunSketchValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"frac>1":   sketchConfig(1.5),
		"frac<0":   sketchConfig(-0.1),
		"workers":  func() Config { c := sketchConfig(0.5); c.Workers = 2; return c }(),
		"factored": func() Config { c := sketchConfig(0.5); c.Factored = true; return c }(),
	} {
		if _, err := RunCtx(context.Background(), cfg); err == nil {
			t.Fatalf("%s: invalid sketch config accepted", name)
		} else if !strings.Contains(err.Error(), "Sketch") {
			t.Fatalf("%s: error %q does not name the Sketch config", name, err)
		}
	}
}

func TestBaselineSketch(t *testing.T) {
	base, err := BaselineCtx(context.Background(), sketchConfig(0.5), "random", 60)
	if err != nil {
		t.Fatal(err)
	}
	st := base.SketchStats
	if st == nil {
		t.Fatal("SketchStats missing from a sketched baseline")
	}
	if st.Join.InputNNZ <= 0 || st.Join.Kept <= 0 || st.Join.Kept > st.Join.InputNNZ {
		t.Fatalf("baseline sketch stats out of range: %+v", st.Join)
	}
	// A baseline has one tensor: the sub-tensor slots stay zero.
	if st.Sub1.InputNNZ != 0 || st.Sub2.InputNNZ != 0 {
		t.Fatalf("baseline filled sub-tensor sketch stats: %+v", st)
	}
}

func TestDecomposeCtxSketch(t *testing.T) {
	space, err := eval.SpaceFor("double-pendulum", 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	part, err := PartitionCtx(context.Background(), space, 0, PartitionOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := DecomposeCtx(context.Background(), part, DecomposeOptions{Method: "M2TD-SELECT", Rank: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sketch != nil {
		t.Fatalf("unsketched decomposition carries a SketchReport: %+v", res.Sketch)
	}
	sres, err := DecomposeCtx(context.Background(), part, DecomposeOptions{
		Rank:   2,
		Sketch: SketchConfig{KeepFrac: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sres.Sketch == nil || sres.Sketch.Seed != 1 {
		t.Fatalf("sketched building block report = %+v, want defaulted seed 1", sres.Sketch)
	}
}
