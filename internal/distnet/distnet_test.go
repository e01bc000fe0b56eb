package distnet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dynsys"
	"repro/internal/ensemble"
	"repro/internal/faults"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/stitch"
	"repro/internal/store"
	"repro/internal/tensor"
	"repro/internal/tucker"
)

// TestMain lets the coordinator self-exec this test binary as a worker
// process: when the distnet environment is present, MaybeWorker takes
// over and never returns.
func TestMain(m *testing.M) {
	awaitEarlyWork()
	refuseTasks()
	MaybeWorker()
	// Under -race every process sleeps a second at exit, and a campaign
	// waits for its workers' exits: spare the workers (they inherit the
	// environment; this process has read its own already) the sleep, or a
	// -count=20 soak of this package is twenty minutes of sleeping.
	if os.Getenv("GORACE") == "" {
		os.Setenv("GORACE", "atexit_sleep_ms=0")
	}
	os.Exit(m.Run())
}

// lateArg, as a worker's only argument (Options.WorkerArgv) followed by
// "<id>:<catalog>", names the worker id that stays away from the coordinator
// until a task's output is in the catalog: the rest of the fleet has the
// early work to itself, however the processes' start-up times fall.
const lateArg = "-distnet-late-worker="

func awaitEarlyWork() {
	if len(os.Args) != 2 || !strings.HasPrefix(os.Args[1], lateArg) {
		return
	}
	id, dir, _ := strings.Cut(strings.TrimPrefix(os.Args[1], lateArg), ":")
	if id != os.Getenv(envID) {
		return
	}
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if outs, _ := filepath.Glob(filepath.Join(dir, "*-p1-*")); len(outs) > 0 {
			return
		}
	}
}

// refuseArg, as a worker's only argument (Options.WorkerArgv), makes the
// worker answer every task it is leased with a task error; silentArg makes
// it take its lease and never answer (nor heartbeat).
const (
	refuseArg = "-distnet-refusing-worker"
	silentArg = "-distnet-silent-worker"
)

func refuseTasks() {
	if len(os.Args) != 2 || (os.Args[1] != refuseArg && os.Args[1] != silentArg) || os.Getenv(envAddr) == "" {
		return
	}
	id, err := strconv.Atoi(os.Getenv(envID))
	if err != nil {
		os.Exit(1)
	}
	conn, err := net.Dial("tcp", os.Getenv(envAddr))
	if err != nil {
		os.Exit(1)
	}
	hello, _ := json.Marshal(helloMsg{Worker: id, PID: os.Getpid()})
	if writeFrame(conn, frameHello, hello) != nil {
		os.Exit(1)
	}
	for {
		t, payload, err := readFrame(conn)
		if err != nil || t != frameTask {
			os.Exit(0) // shutdown frame, or the coordinator is gone
		}
		if os.Args[1] == silentArg {
			continue
		}
		var task taskMsg
		_ = json.Unmarshal(payload, &task)
		res, _ := json.Marshal(resultMsg{ID: task.ID, Worker: id, Err: "refused"})
		if writeFrame(conn, frameTaskErr, res) != nil {
			os.Exit(0)
		}
	}
}

var doublePendulumPairs = [][2]int{{0, 2}, {1, 3}}

func tinyPartition(t testing.TB, freeFrac float64, seed int64) *partition.Result {
	t.Helper()
	space := ensemble.NewSpace(dynsys.NewDoublePendulum(), 5, 4)
	cfg := partition.DefaultConfig(5, 4, doublePendulumPairs)
	cfg.FreeFrac = freeFrac
	res, err := partition.GenerateCtx(context.Background(), space, cfg, rand.New(rand.NewSource(seed)), partition.SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runDistNet runs one campaign on the engine, which stitches nothing: no
// join on the result, no Phase 2.
func runDistNet(t *testing.T, p *partition.Result, opts Options) *Result {
	t.Helper()
	if opts.WorkDir == "" {
		opts.WorkDir = t.TempDir()
	}
	res, err := Decompose(context.Background(), p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Join != nil || res.Phase2 != (PhaseStats{}) {
		t.Fatalf("join stitched %v, phase 2 %+v", res.Join != nil, res.Phase2)
	}
	return res
}

// holed is p without the cells drop selects (by side, 1 or 2, and entry).
func holed(p *partition.Result, drop func(side, e int) bool) *partition.Result {
	out, sub1, sub2 := *p, *p.Sub1, *p.Sub2
	for side, sub := range []*partition.SubEnsemble{&sub1, &sub2} {
		x := sub.Tensor
		sub.Tensor = tensor.NewSparse(x.Shape)
		for e := 0; e < x.NNZ(); e++ {
			if !drop(side+1, e) {
				sub.Tensor.Append(x.Entry(e))
			}
		}
	}
	out.Sub1, out.Sub2 = &sub1, &sub2
	return &out
}

// sameDecomposition compares two results that both stitched a join or
// neither did; against core.DecomposeCtx's, callers compare JoinCells.
func sameDecomposition(t *testing.T, label string, a, b *core.Result, tol float64) {
	t.Helper()
	if (a.Join == nil) != (b.Join == nil) {
		t.Fatalf("%s: one result has a join, the other none", label)
	}
	if a.Join != nil && a.Join.NNZ() != b.Join.NNZ() {
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
		f := runDistNet(t, p, Options{Method: m, Ranks: ranks, Workers: 2})
		if p.JoinCells(false) != serial.Join.NNZ() {
			t.Fatalf("%s: join-free JoinCells %d, serial join %d", m, p.JoinCells(false), serial.Join.NNZ())
		}
		f.Join = serial.Join // compared above, through JoinCells
		sameDecomposition(t, string(m), f.Result, serial, 1e-9)
	}
}

func TestDistNetZeroJoinMatchesSerial(t *testing.T) {
	p := tinyPartition(t, 0.4, 221)
	ranks := tucker.UniformRanks(5, 2)
	serial, err := core.DecomposeCtx(context.Background(), p, core.Options{Method: core.SELECT, Ranks: ranks, ZeroJoin: true})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Method: core.SELECT, Ranks: ranks, ZeroJoin: true, Workers: 2, Shards: 3}
	f := runDistNet(t, p, opts)
	if p.JoinCells(true) != serial.Join.NNZ() {
		t.Fatalf("join-free zero-join JoinCells %d, serial join %d", p.JoinCells(true), serial.Join.NNZ())
	}
	f.Join = serial.Join // compared above, through JoinCells
	sameDecomposition(t, "zero-join", f.Result, serial, 1e-9)
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
// injection points — after the compute, before the durable save — and
// requires the surviving fleet to produce output bit-identical to an
// unkilled run: up to Workers−1 kills, so the drill lands on project tasks
// as it does on factor ones.
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
		lost := d.Phase1.WorkersLost + d.Phase3.WorkersLost
		if lost != kills {
			t.Fatalf("kills=%d: %d workers lost, want exactly %d", kills, lost, kills)
		}
		requeues := d.Phase1.Requeues + d.Phase3.Requeues
		if requeues < kills {
			t.Fatalf("kills=%d: only %d requeues, want >= %d", kills, requeues, kills)
		}
		// A task is re-leased only for a lost worker: at most one per loss.
		for _, ph := range []PhaseStats{d.Phase1, d.Phase3} {
			if ph.Requeues > ph.WorkersLost {
				t.Fatalf("kills=%d: a phase re-leased %d tasks for %d lost workers", kills, ph.Requeues, ph.WorkersLost)
			}
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
// finish correctly on the survivor — which joins late, so the saboteur is
// sure of a task to sabotage.
func TestDistNetCorruptFrameQuarantine(t *testing.T) {
	p := tinyPartition(t, 1, 225)
	ranks := tucker.UniformRanks(5, 2)
	base := Options{Method: core.AVG, Ranks: ranks, Workers: 2, Shards: 3}
	clean := runDistNet(t, p, base)

	opts := base
	opts.WorkDir = t.TempDir()
	opts.WorkerEnv = []string{envCorrupt + "=0"}
	opts.WorkerArgv = []string{exe(t), lateArg + "1:" + opts.WorkDir}
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
		Workers: 2, Span: trace.Root(),
	}
	d := runDistNet(t, p, opts)
	trace.Finish()

	if len(d.Workers) != 2 {
		t.Fatalf("roster has %d workers, want 2", len(d.Workers))
	}
	// The roster lists the fleet as spawned, joined before the campaign
	// ended or not, and accounts for every task leased.
	tasks := 0
	for _, w := range d.Workers {
		if w.PID <= 0 {
			t.Fatalf("worker %d reported pid %d", w.ID, w.PID)
		}
		tasks += w.Tasks
	}
	if tasks != d.Phase1.Tasks+d.Phase3.Tasks {
		t.Fatalf("roster accounts for %d of %d tasks", tasks, d.Phase1.Tasks+d.Phase3.Tasks)
	}
	// The engine runs two phases after the upload — there is nothing to
	// stitch, so no phase2 span — and the stage span says what ran:
	// join-free, and no pivot group of this intact pair holey.
	checkPhases(t, trace.Root(), map[string]int{"phase1": 6, "phase3": 2})
	if root := trace.Root(); root.Counter("factored") != 1 || root.Counter("holey_groups") != 0 {
		t.Fatalf("stage span: want factored = 1 and holey_groups = 0:\n%s", root.Skeleton())
	}
}

// checkPhases requires the campaign's spans to be upload, phase1 and
// phase3 — no phase2 — each phase recording its task count and holding
// one child per task.
func checkPhases(t *testing.T, root *obs.Span, tasks map[string]int) {
	t.Helper()
	var names []string
	for _, c := range root.Children() {
		names = append(names, c.Name())
	}
	if want := []string{"upload", "phase1", "phase3"}; !slices.Equal(names, want) {
		t.Fatalf("campaign spans %v, want %v", names, want)
	}
	for _, name := range []string{"phase1", "phase3"} {
		ps := root.Find(name)
		if got := ps.Counter("tasks"); got != int64(tasks[name]) {
			t.Fatalf("%s span records %d tasks, want %d", name, got, tasks[name])
		}
		if len(ps.Children()) != int(ps.Counter("tasks")) {
			t.Fatalf("%s span has %d task children for %d tasks", name, len(ps.Children()), ps.Counter("tasks"))
		}
	}
}

// TestDistNetTaskErrorsExhaustAttempts: a phase that cannot finish fails
// the campaign and finishes its spans.
//
//   - exhausted: a task error from a live worker is not a lost worker —
//     nothing re-leases the task, which could only fail again, so its one
//     attempt exhausts it. The campaign fails on the first task error, with
//     an error naming the task, the worker and its message, and the failed
//     phase is on the trace as it ran: phase1 finished, every task's span
//     finished, the failed task leased once.
//   - deadline: the phase's one worker holds a lease it never answers; the
//     campaign fails with its deadline.
func TestDistNetTaskErrorsExhaustAttempts(t *testing.T) {
	t.Run("exhausted", func(t *testing.T) {
		trace := obs.New("campaign")
		opts := Options{Method: core.SELECT, Ranks: tucker.UniformRanks(5, 2), Workers: 1,
			Span: trace.Root(), WorkDir: t.TempDir(), WorkerArgv: []string{exe(t), refuseArg}}
		_, err := Decompose(context.Background(), tinyPartition(t, 1, 228), opts)
		first := factorOut(1, 0)
		if err == nil || !strings.Contains(err.Error(), "task "+first+" on worker 0: refused") {
			t.Fatalf("campaign on a refusing worker: err %v, want task %s's refusal", err, first)
		}
		p1 := checkFailedPhase1(t, trace)
		for _, ts := range p1.Children {
			want := int64(0)
			if ts.Name == "task:"+first {
				want = 1
			}
			if ts.Gauges["attempts"] != want {
				t.Errorf("%s: %d attempts, want %d", ts.Name, ts.Gauges["attempts"], want)
			}
		}
	})
	t.Run("deadline", func(t *testing.T) {
		ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
		defer cancel()
		trace := obs.New("campaign")
		opts := Options{Method: core.SELECT, Ranks: tucker.UniformRanks(5, 2), Workers: 1,
			Span: trace.Root(), WorkDir: t.TempDir(), WorkerArgv: []string{exe(t), silentArg}}
		if _, err := Decompose(ctx, tinyPartition(t, 1, 228), opts); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("campaign on a silent worker: err %v, want the deadline", err)
		}
		checkFailedPhase1(t, trace)
	})
}

// TestDistNetLostFleetSaysWhy: when the last worker is lost the campaign's
// error says how — here a CRC-corrupt first result from a one-worker fleet.
func TestDistNetLostFleetSaysWhy(t *testing.T) {
	opts := Options{Method: core.SELECT, Ranks: tucker.UniformRanks(5, 2), Workers: 1,
		WorkDir: t.TempDir(), WorkerEnv: []string{envCorrupt + "=0"}}
	_, err := Decompose(context.Background(), tinyPartition(t, 1, 229), opts)
	want := "worker 0: read: " + errBadFrame.Error()
	if err == nil || !strings.Contains(err.Error(), "all 1 workers lost") || !strings.Contains(err.Error(), want) {
		t.Fatalf("campaign on a corrupting worker: err %v, want all workers lost, last %q", err, want)
	}
}

// exe is this test binary, which TestMain turns into a worker.
func exe(t *testing.T) string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return exe
}

// checkFailedPhase1 requires a campaign that failed in Phase 1 to have
// finished phase1 and each of its six task spans, and to have no phase3.
func checkFailedPhase1(t *testing.T, trace *obs.Trace) *obs.SpanData {
	t.Helper()
	p1 := trace.Root().Data().Find("phase1")
	if p1 == nil || p1.Running || len(p1.Children) != 6 || trace.Root().Find("phase3") != nil {
		t.Fatalf("want phase1 finished with 6 tasks, and no phase3:\n%s", trace.Root().Skeleton())
	}
	for _, ts := range p1.Children {
		if ts.Running {
			t.Errorf("%s still running after the campaign failed", ts.Name)
		}
	}
	return p1
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

// TestWorkDirFromAnotherGramKernel: a catalog holding Phase 1 objects
// under the key a build with the column-plan Gram kernel named them — the
// same job, its layout string without the kernel — resumes nothing from
// them. The objects are well-formed but poisoned (a scaled identity Gram,
// identity columns for a factor), so any one read would move the result:
// no task is skipped, and the bits are a fresh directory's.
func TestWorkDirFromAnotherGramKernel(t *testing.T) {
	p := tinyPartition(t, 1, 233)
	opts := Options{Method: core.CONCAT, Ranks: tucker.UniformRanks(5, 2), Workers: 2, WorkDir: t.TempDir()}
	fresh := runDistNet(t, p, opts)

	opts.WorkDir = t.TempDir()
	st, err := store.Open(opts.WorkDir)
	if err != nil {
		t.Fatal(err)
	}
	ranks, err := core.CheckedRanks(opts.Method, opts.Ranks, p.Space.Shape())
	if err != nil {
		t.Fatal(err)
	}
	subs := []*partition.SubEnsemble{p.Sub1, p.Sub2}
	var sums [2]uint32
	for i, sub := range subs {
		if err := st.SaveSparse(objSubs[i], sub.Tensor); err != nil {
			t.Fatal(err)
		}
		if sums[i], err = st.Checksum(objSubs[i]); err != nil {
			t.Fatal(err)
		}
	}
	spec := jobSpec{Join: stitch.NewSpec(p, false), Sampled: core.SampledOf(p), Shards: opts.Workers}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%v|%d|%t|%v|%08x", "core+holey", opts.Method, ranks, spec.Shards, spec.Join.ZeroJoin, spec.Sampled, sums)
	older := fmt.Sprintf("%016x", h.Sum64())
	if older == jobKey(opts.Method, ranks, spec, sums) {
		t.Fatal("the job key does not name the Gram kernel")
	}
	for si, sub := range subs {
		for n, m := range sub.Modes {
			size := sub.Tensor.Shape[n]
			g, f := mat.New(size, size), mat.New(size, ranks[m])
			for i := 0; i < size; i++ {
				g.Set(i, i, 3)
				if i < ranks[m] {
					f.Set(i, i, 1)
				}
			}
			if err := st.SaveMatrices(objectName(older, factorOut(si+1, n)), []*mat.Matrix{g, f}); err != nil {
				t.Fatal(err)
			}
		}
	}

	got := runDistNet(t, p, opts)
	if n := got.Phase1.Skipped + got.Phase3.Skipped; n != 0 {
		t.Errorf("%d tasks skipped on the other kernel's artifacts", n)
	}
	sameDecomposition(t, "catalog of another Gram kernel vs fresh", got.Result, fresh.Result, 0)
}

// TestWorkDirReusedByAnotherCampaign: artifacts are named after the job
// that wrote them, so a campaign run in a WorkDir another campaign used —
// another method, rank, shard count, zero-join setting or input pair —
// finds nothing to skip and returns the bits of a run in a fresh directory,
// not the previous campaign's (every p1-/p3- object of which loads
// cleanly). So does the same pair sampled on another grid (here: without
// its configuration lists), whose partials split differently though its
// core agrees. The first campaign's artifacts stay valid for it: run again,
// it skips every task.
func TestWorkDirReusedByAnotherCampaign(t *testing.T) {
	p := tinyPartition(t, 0.5, 231)
	dir := t.TempDir()
	base := Options{Method: core.SELECT, Ranks: tucker.UniformRanks(5, 2), Workers: 2, Shards: 2, WorkDir: dir}
	first := runDistNet(t, p, base)

	skipped := func(r *Result) int { return r.Phase1.Skipped + r.Phase2.Skipped + r.Phase3.Skipped }
	for name, c := range map[string]struct {
		mutate func(*Options)
		part   *partition.Result
	}{
		"method":    {func(o *Options) { o.Method = core.AVG }, p},
		"rank":      {func(o *Options) { o.Ranks = tucker.UniformRanks(5, 3) }, p},
		"shards":    {func(o *Options) { o.Shards = 3 }, p},
		"zero-join": {func(o *Options) { o.ZeroJoin = true }, p},
		"inputs":    {func(*Options) {}, tinyPartition(t, 0.5, 232)},
	} {
		opts := base
		c.mutate(&opts)
		got := runDistNet(t, c.part, opts)
		opts.WorkDir = t.TempDir()
		want := runDistNet(t, c.part, opts)
		if n := skipped(got); n != 0 {
			t.Errorf("%s changed: %d tasks skipped on another campaign's artifacts", name, n)
		}
		sameDecomposition(t, name+" changed: reused vs fresh WorkDir", got.Result, want.Result, 0)
		if got.Core.Equal(first.Core, 0) {
			t.Errorf("%s changed: the reused WorkDir returned the first campaign's core", name)
		}
	}

	// The same tensors without their configuration lists are another job:
	// no side's cκ is one row, and the core agrees.
	bare := *p
	bare.PivotConfigs, bare.Free1Configs, bare.Free2Configs = nil, nil, nil
	unlisted := runDistNet(t, &bare, base)
	if n := skipped(unlisted); n != 0 {
		t.Errorf("no configuration lists: %d tasks skipped on the listed campaign's artifacts", n)
	}
	if !unlisted.Core.Equal(first.Core, 1e-9) {
		t.Error("no configuration lists: core differs from the listed campaign's")
	}
	again := runDistNet(t, p, base)
	if skipped(again) != again.Phase1.Tasks+again.Phase3.Tasks {
		t.Errorf("campaign resumed after the others: %d of %d tasks skipped", skipped(again), again.Phase1.Tasks+again.Phase3.Tasks)
	}
	sameDecomposition(t, "resumed after the others", again.Result, first.Result, 0)

	// A Phase 1 object that loads but has the wrong shape — here a factor
	// one row short — is skipped by the worker's resume check and refused by
	// the coordinator as corrupt, whichever matrix the fusion reads.
	for _, m := range core.Methods() {
		opts := base
		opts.Method, opts.WorkDir = m, t.TempDir()
		runDistNet(t, p, opts)
		st, err := store.Open(opts.WorkDir)
		if err != nil {
			t.Fatal(err)
		}
		names, err := st.List()
		if err != nil {
			t.Fatal(err)
		}
		i := slices.IndexFunc(names, func(name string) bool { return strings.HasSuffix(name, "-"+factorOut(1, 0)) })
		ms, err := st.LoadMatrices(names[i])
		if err != nil {
			t.Fatal(err)
		}
		f := ms[1]
		ms[1] = &mat.Matrix{Rows: f.Rows - 1, Cols: f.Cols, Data: f.Data[:(f.Rows-1)*f.Cols]}
		if err := st.SaveMatrices(names[i], ms); err != nil {
			t.Fatal(err)
		}
		if _, err := Decompose(context.Background(), p, opts); !errors.Is(err, store.ErrCorrupt) {
			t.Errorf("%s: mis-shaped %s: error %v, want store.ErrCorrupt", m, names[i], err)
		}
	}
}
