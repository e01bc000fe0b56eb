package m2td

import (
	"context"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/tucker"
)

// TestMain lets the multi-process engine self-exec this test binary as a
// worker: with the distnet environment present MaybeDistWorker takes
// over the process and never returns.
func TestMain(m *testing.M) {
	MaybeDistWorker()
	// Under -race a process sleeps a second at exit and a campaign waits for
	// its workers' exits; the workers inherit this and skip the sleep.
	if os.Getenv("GORACE") == "" {
		os.Setenv("GORACE", "atexit_sleep_ms=0")
	}
	os.Exit(m.Run())
}

func tinyDistConfig() Config {
	return Config{Resolution: 5, TimeSamples: 4, Rank: 2, SkipAccuracy: true}
}

// TestDistributedFacadeMatchesInProcess checks the two D-M2TD executors —
// goroutines (Workers) and worker processes (Distributed) — agree through
// the facade to the last bit at equal shard counts.
func TestDistributedFacadeMatchesInProcess(t *testing.T) {
	inproc := tinyDistConfig()
	inproc.Workers = 2
	a, err := RunCtx(context.Background(), inproc)
	if err != nil {
		t.Fatal(err)
	}

	multi := tinyDistConfig()
	multi.Distributed = &DistributedConfig{Workers: 2}
	b, err := RunCtx(context.Background(), multi)
	if err != nil {
		t.Fatal(err)
	}

	if b.Distributed == nil || a.Distributed != nil {
		t.Fatal("DistStats must be set exactly for the Distributed engine")
	}
	if b.Distributed.Workers != 2 || b.Distributed.WorkersLost != 0 {
		t.Fatalf("unexpected dist stats: %+v", b.Distributed)
	}
	if a.JoinCells != b.JoinCells {
		t.Fatalf("join cells %d vs %d", a.JoinCells, b.JoinCells)
	}
	if !a.Decomposition.Core.Equal(b.Decomposition.Core, 0) {
		t.Fatal("in-process and multi-process cores differ")
	}
	for m := range a.Decomposition.Factors {
		if !a.Decomposition.Factors[m].Equal(b.Decomposition.Factors[m], 0) {
			t.Fatalf("factor %d differs between engines", m)
		}
	}
}

// TestDistributedFacadeKillDrill runs the kill-and-recover chaos drill
// through the facade: killing a worker must not change a single bit.
func TestDistributedFacadeKillDrill(t *testing.T) {
	clean := tinyDistConfig()
	clean.Distributed = &DistributedConfig{Workers: 3, Shards: 4}
	a, err := RunCtx(context.Background(), clean)
	if err != nil {
		t.Fatal(err)
	}

	chaos := tinyDistConfig()
	chaos.Distributed = &DistributedConfig{Workers: 3, Shards: 4, KillWorkers: 1}
	b, err := RunCtx(context.Background(), chaos)
	if err != nil {
		t.Fatal(err)
	}

	if b.Distributed.WorkersLost != 1 {
		t.Fatalf("%d workers lost, want 1", b.Distributed.WorkersLost)
	}
	if !a.Decomposition.Core.Equal(b.Decomposition.Core, 0) {
		t.Fatal("killed run's core is not bit-identical to clean run")
	}
	for m := range a.Decomposition.Factors {
		if !a.Decomposition.Factors[m].Equal(b.Decomposition.Factors[m], 0) {
			t.Fatalf("factor %d not bit-identical under kills", m)
		}
	}
}

// TestDistributedConfigValidation: every invalid process-engine config is
// refused in resolve, by an error naming the offending field, before any
// simulation runs.
func TestDistributedConfigValidation(t *testing.T) {
	for _, row := range map[string]struct {
		field  string
		mutate func(*Config)
	}{
		"with Workers":  {"Workers", func(c *Config) { c.Workers = 2 }},
		"with Factored": {"Factored", func(c *Config) { c.Factored = true }},
		"kill every worker": {"Distributed.KillWorkers", func(c *Config) {
			c.Distributed.Workers = 2
			c.Distributed.KillWorkers = 2
		}},
		"negative kills":  {"Distributed.KillWorkers", func(c *Config) { c.Distributed.KillWorkers = -1 }},
		"negative shards": {"Distributed.Shards", func(c *Config) { c.Distributed.Shards = -1 }},
	} {
		cfg := tinyDistConfig()
		cfg.Distributed = &DistributedConfig{Workers: 2}
		row.mutate(&cfg)
		requireRejected(t, row.field, cfg, func(c Config) error {
			_, err := RunCtx(context.Background(), c)
			return err
		})
	}
}

// TestDistributedRouteIsVisible: both engines are join-free and say so. On
// an intact partition the report has no join, its JoinCells is the density
// formula's, the decompose span carries factored = 1 and holey_groups = 0
// and — on the process engine — a phase3 span and no phase2 span (nothing
// is stitched). One failed simulation changes one thing: holey_groups
// counts the pivot groups it left a hole in, and the core still equals
// core.DecomposeCtx's on that partition to 1e-9.
func TestDistributedRouteIsVisible(t *testing.T) {
	engines := map[string]func(*Config){
		"Workers":     func(c *Config) { c.Workers = 3 },
		"Distributed": func(c *Config) { c.Distributed = &DistributedConfig{Workers: 2, Shards: 3} },
	}
	for name, engine := range engines {
		cfg := smallConfig()
		cfg.SkipAccuracy, cfg.Trace = true, true
		engine(&cfg)
		report, err := RunCtx(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d := report.Trace.Root().Find("decompose")
		intact := report.Partition
		if closed := len(intact.PivotConfigs) * len(intact.Free1Configs) * len(intact.Free2Configs); report.Decomposition.Join != nil ||
			report.JoinCells != closed || d.Counter("factored") != 1 || d.Counter("holey_groups") != 0 {
			t.Errorf("%s, intact partition: join stitched %v, JoinCells %d, span:\n%s", name, report.Decomposition.Join != nil, report.JoinCells, d.Skeleton())
		}
		if ds := report.Distributed; ds != nil {
			if d.Find("phase2") != nil || d.Find("phase3").Counter("tasks") != 3 {
				t.Errorf("%s, intact partition: span:\n%s", name, d.Skeleton())
			}
		}

		cfg.Faults = &faults.Config{Seed: 3, PanicRate: 0.02}
		broken, err := RunCtx(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s, one failed simulation: %v", name, err)
		}
		if broken.FailedSims != 1 {
			t.Fatalf("fixture: %d failed simulations, want exactly 1", broken.FailedSims)
		}
		d = broken.Trace.Root().Find("decompose")
		if broken.Decomposition.Join != nil || d.Counter("factored") != 1 || d.Counter("holey_groups") < 1 {
			t.Fatalf("%s, one failed simulation: join stitched %v, span:\n%s", name, broken.Decomposition.Join != nil, d.Skeleton())
		}
		if broken.Distributed != nil && (d.Find("phase2") != nil || d.Find("phase3") == nil) {
			t.Errorf("%s, one failed simulation: span:\n%s", name, d.Skeleton())
		}
		want, err := core.DecomposeCtx(context.Background(), broken.Partition, core.Options{
			Method: core.SELECT, Ranks: tucker.UniformRanks(broken.Space.Order(), cfg.Rank),
		})
		if err != nil {
			t.Fatal(err)
		}
		if broken.JoinCells != want.Join.NNZ() || !broken.Decomposition.Core.Equal(want.Core, 1e-9) {
			t.Errorf("%s, one failed simulation: differs from core.DecomposeCtx", name)
		}
	}
}
