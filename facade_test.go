package m2td

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/partition"
	"repro/internal/stitch"
	"repro/internal/tucker"
)

// TestCtxBuildingBlocksParity locks in RunCtx's stages' contract: a zero
// density means the documented default (1), the join size reported is what
// the stitch kernel builds, and the decomposition is bit-identical at any
// Parallel value.
func TestCtxBuildingBlocksParity(t *testing.T) {
	run := func(cfg Config) *Report {
		t.Helper()
		cfg.System, cfg.Resolution, cfg.TimeSamples, cfg.Rank, cfg.Seed = "double-pendulum", 5, 4, 2, 3
		cfg.SubEnsembleDensity, cfg.SkipAccuracy = 0.5, true
		report, err := RunCtx(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return report
	}
	explicit := run(Config{PivotDensity: 1, Parallel: 1})
	serial := run(Config{Parallel: 1})
	pooled := run(Config{Parallel: 4})
	if serial.NumSims != explicit.NumSims {
		t.Fatalf("NumSims = %d with PivotDensity defaulted, %d with PivotDensity 1", serial.NumSims, explicit.NumSims)
	}
	if want := stitch.Join(explicit.Partition); serial.JoinCells != want.NNZ() {
		t.Fatalf("JoinCells = %d, stitch.Join = %d", serial.JoinCells, want.NNZ())
	}
	requireSameBits(t, "Parallel 4 vs 1", pooled.Decomposition, serial.Decomposition)
}

// TestCtxBuildingBlocksTrace: a traced run records each stage's span, and
// the decompose stage took the join-free route.
func TestCtxBuildingBlocksTrace(t *testing.T) {
	cfg := traceConfig()
	cfg.ZeroJoin = true
	report, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	root := report.Trace.Root()
	for _, path := range [][]string{
		{"partition", "sub1"},
		{"decompose", "factors"},
		{"decompose", "core"},
		{"evaluate"},
	} {
		if root.Find(path...) == nil {
			t.Errorf("span %v missing:\n%s", path, root.Skeleton())
		}
	}
	if d := root.Find("decompose"); d.Find("stitch") != nil || d.Counter("factored") != 1 {
		t.Errorf("decompose stage: want no stitch span and factored=1:\n%s", d.Skeleton())
	}
}

// TestCtxBuildingBlocksCancellation: a pre-cancelled context stops the
// simulation fan-out and the decomposition stage with a context error.
func TestCtxBuildingBlocksCancellation(t *testing.T) {
	space, err := eval.SpaceFor("double-pendulum", 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	part := partitionAt(t, space, space.TimeMode(), 1, 1, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pcfg := partition.DefaultConfig(space.Order(), space.TimeMode(), eval.PairsFor(space.Sys.Name()))
	if _, err := partition.GenerateCtx(ctx, space, pcfg, rand.New(rand.NewSource(3)), partition.SimOptions{}); !errors.Is(err, context.Canceled) {
		t.Errorf("partition.GenerateCtx on a cancelled context: %v", err)
	}
	ranks := tucker.UniformRanks(space.Order(), 2)
	if _, _, err := decomposeStage(ctx, nil, part, core.SELECT, ranks, Config{}); !errors.Is(err, context.Canceled) {
		t.Errorf("decomposition stage on a cancelled context: %v", err)
	}
}

// TestDecomposeCtxRejectsBadMethod: typed-method validation happens in
// the facade, before any simulation.
func TestDecomposeCtxRejectsBadMethod(t *testing.T) {
	var attempts atomic.Int64
	cfg := smallConfig()
	cfg.Method = "bogus"
	cfg.Faults = &faults.Config{Seed: 1, Hook: func() { attempts.Add(1) }}
	if _, err := RunCtx(context.Background(), cfg); err == nil {
		t.Error("bogus method accepted")
	}
	if n := attempts.Load(); n != 0 {
		t.Errorf("%d simulation attempts ran before the rejection", n)
	}
}

// outOfRange are the Config values RunCtx and BaselineCtx refuse in
// resolve, each by the field's name: a negative size (zero selects the
// default) or a density outside (0, 1], NaN included.
var outOfRange = []struct {
	field string
	set   func(*Config)
}{
	{"Resolution", func(c *Config) { c.Resolution = -1 }},
	{"TimeSamples", func(c *Config) { c.TimeSamples = -2 }},
	{"Rank", func(c *Config) { c.Rank = -1 }},
	{"Workers", func(c *Config) { c.Workers = -1 }},
	{"AccuracySampleSims", func(c *Config) { c.AccuracySampleSims = -5 }},
	{"PivotDensity", func(c *Config) { c.PivotDensity = math.NaN() }},
	{"SubEnsembleDensity", func(c *Config) { c.SubEnsembleDensity = math.NaN() }},
	{"PivotDensity", func(c *Config) { c.PivotDensity = 1.5 }},
}

// TestRunCtxRejectsOutOfRange: every out-of-range size or density is an
// error naming its field, returned before a single simulation is attempted.
func TestRunCtxRejectsOutOfRange(t *testing.T) {
	for _, row := range outOfRange {
		cfg := smallConfig()
		row.set(&cfg)
		requireRejected(t, row.field, cfg, func(c Config) error {
			_, err := RunCtx(context.Background(), c)
			return err
		})
	}
}

// TestBaselineCtxRejectsOutOfRange: BaselineCtx shares RunCtx's checks and
// adds its budget's.
func TestBaselineCtxRejectsOutOfRange(t *testing.T) {
	baseline := func(budget int) func(Config) error {
		return func(c Config) error {
			_, err := BaselineCtx(context.Background(), c, "random", budget)
			return err
		}
	}
	requireRejected(t, "budget", smallConfig(), baseline(-1))
	for _, row := range outOfRange {
		cfg := smallConfig()
		row.set(&cfg)
		requireRejected(t, row.field, cfg, baseline(40))
	}
}

// requireRejected runs one entry point on cfg under a counting fault hook:
// it must fail with an error naming field, having attempted no simulation.
func requireRejected(t *testing.T, field string, cfg Config, run func(Config) error) {
	t.Helper()
	var attempts atomic.Int64
	cfg.SkipAccuracy = true
	cfg.Faults = &faults.Config{Seed: 1, Hook: func() { attempts.Add(1) }}
	if err := run(cfg); err == nil || !strings.Contains(err.Error(), field) {
		t.Errorf("%s: want an error naming it, got %v", field, err)
	}
	if n := attempts.Load(); n != 0 {
		t.Errorf("%s: %d simulation attempts ran before the rejection", field, n)
	}
}
