package m2td

import (
	"context"
	"os"
	"testing"
)

// TestMain lets the multi-process engine self-exec this test binary as a
// worker: with the distnet environment present MaybeDistWorker takes
// over the process and never returns.
func TestMain(m *testing.M) {
	MaybeDistWorker()
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

func TestDistributedConfigValidation(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"with Workers":  func(c *Config) { c.Workers = 2 },
		"with Factored": func(c *Config) { c.Factored = true },
		"with Sketch":   func(c *Config) { c.Sketch.KeepFrac = 0.5 },
		"kill every worker": func(c *Config) {
			c.Distributed.Workers = 2
			c.Distributed.KillWorkers = 2
		},
		"negative kills": func(c *Config) { c.Distributed.KillWorkers = -1 },
	} {
		cfg := tinyDistConfig()
		cfg.Distributed = &DistributedConfig{Workers: 2}
		mutate(&cfg)
		if _, err := RunCtx(context.Background(), cfg); err == nil {
			t.Fatalf("config %s accepted", name)
		}
	}
}
