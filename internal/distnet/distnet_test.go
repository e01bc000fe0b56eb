package distnet

import (
	"context"
	"math/rand"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/dynsys"
	"repro/internal/ensemble"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/tucker"
)

// TestMain lets the coordinator self-exec this test binary as a worker
// process: when the distnet environment is present, MaybeWorker takes
// over and never returns.
func TestMain(m *testing.M) {
	MaybeWorker()
	os.Exit(m.Run())
}

var doublePendulumPairs = [][2]int{{0, 2}, {1, 3}}

func tinyPartition(t testing.TB, freeFrac float64, seed int64) *partition.Result {
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

func runDistNet(t *testing.T, p *partition.Result, opts Options) *Result {
	t.Helper()
	if opts.WorkDir == "" {
		opts.WorkDir = t.TempDir()
	}
	res, err := Decompose(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func sameDecomposition(t *testing.T, label string, a, b *core.Result, tol float64) {
	t.Helper()
	if a.Join.NNZ() != b.Join.NNZ() {
		t.Fatalf("%s: join NNZ %d != %d", label, a.Join.NNZ(), b.Join.NNZ())
	}
	if !a.Core.Equal(b.Core, tol) {
		t.Fatalf("%s: cores differ (tol %g)", label, tol)
	}
	for m := range a.Factors {
		if !a.Factors[m].Equal(b.Factors[m], tol) {
			t.Fatalf("%s: factor %d differs (tol %g)", label, m, tol)
		}
	}
}

func TestDistNetMatchesSerial(t *testing.T) {
	p := tinyPartition(t, 1, 220)
	ranks := tucker.UniformRanks(5, 3)
	for _, m := range core.Methods() {
		serial, err := core.DecomposeCtx(context.Background(), p, core.Options{Method: m, Ranks: ranks})
		if err != nil {
			t.Fatal(err)
		}
		d := runDistNet(t, p, Options{Method: m, Ranks: ranks, Workers: 2})
		sameDecomposition(t, string(m), d.Result, serial, 1e-9)
	}
}

func TestDistNetZeroJoinMatchesSerial(t *testing.T) {
	p := tinyPartition(t, 0.4, 221)
	ranks := tucker.UniformRanks(5, 2)
	serial, err := core.DecomposeCtx(context.Background(), p, core.Options{Method: core.SELECT, Ranks: ranks, ZeroJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	d := runDistNet(t, p, Options{Method: core.SELECT, Ranks: ranks, ZeroJoin: true, Workers: 2, Shards: 3})
	sameDecomposition(t, "zero-join", d.Result, serial, 1e-9)
}

// TestDistNetWorkerCountInvariance is the determinism contract: with
// Shards pinned, the worker count must not change a single bit.
func TestDistNetWorkerCountInvariance(t *testing.T) {
	p := tinyPartition(t, 1, 222)
	ranks := tucker.UniformRanks(5, 2)
	base := Options{Method: core.SELECT, Ranks: ranks, Shards: 4}

	one := base
	one.Workers = 1
	a := runDistNet(t, p, one)

	three := base
	three.Workers = 3
	b := runDistNet(t, p, three)

	sameDecomposition(t, "workers 1 vs 3", a.Result, b.Result, 0)
}

// TestDistNetKillAndRecover SIGKILLs k of 3 workers mid-task at seeded
// injection points and requires the surviving fleet to produce output
// bit-identical to an unkilled run.
func TestDistNetKillAndRecover(t *testing.T) {
	p := tinyPartition(t, 1, 223)
	ranks := tucker.UniformRanks(5, 2)
	base := Options{Method: core.AVG, Ranks: ranks, Workers: 3, Shards: 4}
	clean := runDistNet(t, p, base)

	for _, kills := range []int{1, 2} {
		opts := base
		opts.Kill = faults.KillSpec{Seed: 42, Kills: kills}
		d := runDistNet(t, p, opts)

		sameDecomposition(t, "killed vs clean", d.Result, clean.Result, 0)
		lost := d.Phase1.WorkersLost + d.Phase2.WorkersLost + d.Phase3.WorkersLost
		if lost != kills {
			t.Fatalf("kills=%d: %d workers lost, want exactly %d", kills, lost, kills)
		}
		requeues := d.Phase1.Requeues + d.Phase2.Requeues + d.Phase3.Requeues
		if requeues < kills {
			t.Fatalf("kills=%d: only %d requeues, want >= %d", kills, requeues, kills)
		}
		quarantined := 0
		for _, w := range d.Workers {
			if w.Quarantined {
				quarantined++
			}
		}
		if quarantined != kills {
			t.Fatalf("kills=%d: roster shows %d quarantined workers", kills, quarantined)
		}
	}
}

// TestDistNetResume reruns a finished campaign in the same catalog: every
// task must be satisfied by its durable artifact, not recomputed.
func TestDistNetResume(t *testing.T) {
	p := tinyPartition(t, 1, 224)
	opts := Options{Method: core.SELECT, Ranks: tucker.UniformRanks(5, 2), Workers: 2, WorkDir: t.TempDir()}
	first := runDistNet(t, p, opts)
	second := runDistNet(t, p, opts)

	sameDecomposition(t, "resume", second.Result, first.Result, 0)
	for _, ph := range []struct {
		name string
		st   PhaseStats
	}{{"phase1", second.Phase1}, {"phase2", second.Phase2}, {"phase3", second.Phase3}} {
		if ph.st.Skipped != ph.st.Tasks {
			t.Fatalf("resume %s: %d of %d tasks skipped, want all", ph.name, ph.st.Skipped, ph.st.Tasks)
		}
	}
}

// TestDistNetCorruptFrameQuarantine makes worker 0 answer its first task
// with a CRC-corrupted frame: the coordinator must quarantine it and
// finish correctly on the survivor.
func TestDistNetCorruptFrameQuarantine(t *testing.T) {
	p := tinyPartition(t, 1, 225)
	ranks := tucker.UniformRanks(5, 2)
	base := Options{Method: core.AVG, Ranks: ranks, Workers: 2, Shards: 3}
	clean := runDistNet(t, p, base)

	opts := base
	opts.WorkerEnv = []string{envCorrupt + "=0"}
	d := runDistNet(t, p, opts)

	sameDecomposition(t, "corrupt vs clean", d.Result, clean.Result, 0)
	lost := d.Phase1.WorkersLost + d.Phase2.WorkersLost + d.Phase3.WorkersLost
	if lost != 1 {
		t.Fatalf("%d workers lost, want exactly the corrupting one", lost)
	}
}

func TestDistNetMetricsAndTrace(t *testing.T) {
	p := tinyPartition(t, 1, 226)
	trace := obs.New("campaign")
	opts := Options{
		Method: core.SELECT, Ranks: tucker.UniformRanks(5, 2),
		Workers: 2, Metrics: true, Span: trace.Root(),
	}
	d := runDistNet(t, p, opts)
	trace.Finish()

	if len(d.Workers) != 2 {
		t.Fatalf("roster has %d workers, want 2", len(d.Workers))
	}
	for _, w := range d.Workers {
		if w.MetricsAddr == "" {
			t.Fatalf("worker %d reported no metrics endpoint", w.ID)
		}
		if w.PID <= 0 {
			t.Fatalf("worker %d reported pid %d", w.ID, w.PID)
		}
	}
	for _, name := range []string{"phase1", "phase2", "phase3"} {
		ps := trace.Root().Find(name)
		if ps == nil {
			t.Fatalf("trace has no %s span", name)
		}
		if got := ps.Counter("tasks"); got <= 0 {
			t.Fatalf("%s span records %d tasks", name, got)
		}
		if len(ps.Children()) != int(ps.Counter("tasks")) {
			t.Fatalf("%s span has %d task children for %d tasks", name, len(ps.Children()), ps.Counter("tasks"))
		}
	}
}

func TestDistNetOptionValidation(t *testing.T) {
	p := tinyPartition(t, 1, 227)
	ranks := tucker.UniformRanks(5, 2)
	ctx := context.Background()

	if _, err := Decompose(ctx, p, Options{Method: "bogus", Ranks: ranks, WorkDir: t.TempDir()}); err == nil {
		t.Fatal("bogus method accepted")
	}
	if _, err := Decompose(ctx, p, Options{Method: core.AVG, Ranks: ranks[:2], WorkDir: t.TempDir()}); err == nil {
		t.Fatal("short rank list accepted")
	}
	if _, err := Decompose(ctx, p, Options{Method: core.AVG, Ranks: ranks}); err == nil {
		t.Fatal("missing WorkDir accepted")
	}
	if _, err := Decompose(ctx, p, Options{
		Method: core.AVG, Ranks: ranks, WorkDir: t.TempDir(),
		Workers: 2, Kill: faults.KillSpec{Seed: 1, Kills: 2},
	}); err == nil {
		t.Fatal("kill plan dooming every worker accepted")
	}
}
