package distnet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/store"
	"repro/internal/tucker"
)

// closeIdle shuts down every pooled fleet.
func closeIdle() {
	pool.mu.Lock()
	var fleets []*fleet
	for sig, f := range pool.idle {
		fleets = append(fleets, f)
		delete(pool.idle, sig)
	}
	pool.mu.Unlock()
	for _, f := range fleets {
		f.idle.Stop()
		f.shutdown()
	}
}

// pooled is the idle fleet of opts' signature, or nil.
func pooled(t *testing.T, opts Options) *fleet {
	t.Helper()
	opts.WorkDir = "signature only"
	opts, err := opts.normalize()
	if err != nil {
		t.Fatal(err)
	}
	argv, err := workerArgv(opts)
	if err != nil {
		t.Fatal(err)
	}
	pool.mu.Lock()
	defer pool.mu.Unlock()
	return pool.idle[signature(opts, argv)]
}

// pids are a roster's process ids.
func pids(r *Result) []int {
	var out []int
	for _, w := range r.Workers {
		out = append(out, w.PID)
	}
	return out
}

// waitFor polls cond for up to ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// gone reports whether every process of a shut-down fleet has been reaped.
func gone(f *fleet) bool { return f.procsLive.Load() == 0 }

// fleetOpts is a pooled signature.
func fleetOpts() Options {
	return Options{Method: core.SELECT, Ranks: tucker.UniformRanks(5, 2), Workers: 2, Shards: 3}
}

// waitJoined waits on the fleet's roster until every worker has said hello.
func waitJoined(t *testing.T, f *fleet) {
	t.Helper()
	waitFor(t, "every worker's hello", func() bool {
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.connected == len(f.procs)
	})
}

// joinedFleet spawns a fleet of opts' signature, waits until every worker
// has joined, and pools it. A campaign can end before a slow starter joins,
// and then its fleet is not pooled; a campaign run on a joined fleet always
// hands it back, so the campaign after it finds it.
func joinedFleet(t *testing.T, opts Options) *fleet {
	t.Helper()
	opts.WorkDir = "signature only"
	opts, err := opts.normalize()
	if err != nil {
		t.Fatal(err)
	}
	f, reused, err := checkout(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if reused {
		t.Fatal("the pool already held a fleet of this signature")
	}
	waitJoined(t, f)
	release(f, true)
	if pooled(t, opts) != f {
		t.Fatal("a joined fleet was not pooled")
	}
	return f
}

// TestFleetReusedAcrossCampaigns: campaigns with one signature run one
// after another on the pooled fleet's worker processes, the roster counts
// each campaign's own tasks, the phase1 span says which campaign found its
// fleet running — and a warm fleet computes the bits of a cold one (a
// dedicated fleet, spawned for its campaign), on an intact pair and on one
// with holes.
func TestFleetReusedAcrossCampaigns(t *testing.T) {
	p := tinyPartition(t, 1, 240)
	for name, part := range map[string]*partition.Result{
		"intact": p,
		"holey":  holed(p, func(side, e int) bool { return side == 1 && e%5 == 0 }),
	} {
		closeIdle()
		f := joinedFleet(t, fleetOpts())
		var runs [3]*Result
		for i := range runs {
			trace := obs.New("campaign")
			opts := fleetOpts()
			opts.Span = trace.Root()
			if i == 0 {
				opts.WorkerEnv = []string{"M2TD_DISTNET_TEST_HOOK=1"}
			}
			runs[i] = runDistNet(t, part, opts)
			trace.Finish()
			if got, want := trace.Root().Find("phase1").Data().Gauges["fleet_reused"], int64(min(i, 1)); got != want {
				t.Fatalf("%s: campaign %d: fleet_reused = %d, want %d", name, i, got, want)
			}
			tasks := 0
			for _, w := range runs[i].Workers {
				tasks += w.Tasks
			}
			if want := runs[i].Phase1.Tasks + runs[i].Phase3.Tasks; tasks != want {
				t.Fatalf("%s: campaign %d: roster counts %d tasks, the campaign leased %d", name, i, tasks, want)
			}
		}
		cold, warm := runs[0], runs[2]
		pooledPIDs := pids(&Result{Workers: f.roster()})
		for i, run := range runs[1:] {
			if !slices.Equal(pids(run), pooledPIDs) {
				t.Fatalf("%s: warm campaign %d ran on pids %v, the pooled fleet's are %v", name, i+1, pids(run), pooledPIDs)
			}
		}
		if slices.Equal(pids(cold), pids(warm)) {
			t.Fatalf("%s: the cold campaign ran on the pooled fleet", name)
		}
		if warm.Phase1.Skipped+warm.Phase3.Skipped != 0 {
			t.Fatalf("%s: the warm campaign skipped tasks in a fresh catalog", name)
		}
		sameBits(t, name+": warm core vs cold", warm.Core.Data, cold.Core.Data)
		for m := range cold.Factors {
			sameBits(t, fmt.Sprintf("%s: warm factor %d vs cold", name, m), warm.Factors[m].Data, cold.Factors[m].Data)
		}
	}
}

// TestFleetDiscardedAfterUncleanCampaign: a campaign that lost a worker,
// failed or was cancelled shuts its fleet down instead of pooling it, and
// the next campaign spawns anew.
func TestFleetDiscardedAfterUncleanCampaign(t *testing.T) {
	p := tinyPartition(t, 1, 241)
	for name, unclean := range map[string]func(t *testing.T, f *fleet, opts Options){
		// A worker stopped while its fleet waited holds its first lease
		// past LeaseTimeout: quarantined, its task re-leased to the other.
		"lease expired": func(t *testing.T, f *fleet, opts Options) {
			if err := syscall.Kill(f.roster()[0].PID, syscall.SIGSTOP); err != nil {
				t.Fatal(err)
			}
			opts.LeaseTimeout = 300 * time.Millisecond
			res, err := Decompose(context.Background(), p, opts)
			if err != nil {
				t.Fatal(err)
			}
			if lost := res.Phase1.WorkersLost + res.Phase3.WorkersLost; lost != 1 {
				t.Fatalf("lost %d workers, want the stopped one", lost)
			}
		},
		// A Phase 1 object one row short, left by the first run in the same
		// catalog: the rerun skips every factor task and fails on it.
		"error": func(t *testing.T, _ *fleet, opts Options) {
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
			_, err = Decompose(context.Background(), p, opts)
			if !errors.Is(err, store.ErrCorrupt) {
				t.Fatalf("error %v, want store.ErrCorrupt", err)
			}
		},
		"cancelled": func(t *testing.T, _ *fleet, opts Options) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, err := Decompose(ctx, p, opts)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("error %v, want context.Canceled", err)
			}
		},
	} {
		closeIdle()
		opts := fleetOpts()
		opts.WorkDir = t.TempDir()
		joinedFleet(t, opts)
		first := runDistNet(t, p, opts)
		f := pooled(t, opts)
		if f == nil {
			t.Fatalf("%s: a clean campaign's fleet was not pooled", name)
		}
		unclean(t, f, opts)
		if g := pooled(t, opts); g != nil || !gone(f) {
			t.Fatalf("%s: fleet pooled after the campaign (%v), or its processes still live (%d)", name, g != nil, f.procsLive.Load())
		}
		opts.WorkDir = t.TempDir()
		next := runDistNet(t, p, opts)
		for _, pid := range pids(next) {
			if slices.Contains(pids(first), pid) {
				t.Fatalf("%s: next campaign ran on pid %d of the discarded fleet", name, pid)
			}
		}
		sameBits(t, name+": next campaign's core", next.Core.Data, first.Core.Data)
	}

	// The rule is on the result: a worker lost in either phase, whether or
	// not a task was re-leased for it.
	for _, r := range []Result{
		{Phase1: PhaseStats{WorkersLost: 1, Requeues: 1}},
		{Phase3: PhaseStats{WorkersLost: 1}},
	} {
		if r.reusable() {
			t.Errorf("%+v / %+v: pooled", r.Phase1, r.Phase3)
		}
	}
	if r := (Result{Phase1: PhaseStats{Tasks: 6, Skipped: 6}}); !r.reusable() {
		t.Error("a clean campaign that skipped its tasks: not pooled")
	}
}

// TestFleetDeadWhileIdle: a worker SIGKILLed while its fleet waits in the
// pool is noticed at checkout; the next campaign spawns a new fleet and
// computes the same bits.
func TestFleetDeadWhileIdle(t *testing.T) {
	closeIdle()
	p := tinyPartition(t, 1, 242)
	opts := fleetOpts()
	joinedFleet(t, opts)
	first := runDistNet(t, p, opts)
	f := pooled(t, opts)
	if f == nil {
		t.Fatal("a clean campaign's fleet was not pooled")
	}
	if err := syscall.Kill(first.Workers[1].PID, syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the idle fleet to see its worker die", func() bool { return len(f.events) > 0 || f.procsLive.Load() < 2 })
	second := runDistNet(t, p, opts)
	if !gone(f) {
		t.Fatal("the fleet with a dead worker was not shut down at checkout")
	}
	for _, pid := range pids(second) {
		if slices.Contains(pids(first), pid) {
			t.Fatalf("second campaign ran on pid %d of the first fleet", pid)
		}
	}
	sameBits(t, "core after a fleet died idle", second.Core.Data, first.Core.Data)
}

// TestFleetDedicatedForChaos: a campaign with a kill plan, WorkerEnv or a
// fixed listen port neither takes the pooled fleet of its signature nor
// leaves its own in the pool.
func TestFleetDedicatedForChaos(t *testing.T) {
	closeIdle()
	p := tinyPartition(t, 1, 243)
	base := fleetOpts()
	joinedFleet(t, base)
	clean := runDistNet(t, p, base)
	f := pooled(t, base)
	if f == nil {
		t.Fatal("a clean campaign's fleet was not pooled")
	}
	for name, mutate := range map[string]func(*Options){
		"kill plan": func(o *Options) { o.Kill = faults.KillSpec{Seed: 3, Kills: 1} },
		"WorkerEnv": func(o *Options) { o.WorkerEnv = []string{"M2TD_DISTNET_TEST_HOOK=1"} },
		// A pooled fleet would hold the port against every other signature.
		"fixed port": func(o *Options) {
			lis, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			o.Addr = lis.Addr().String()
			lis.Close()
		},
	} {
		opts := base
		mutate(&opts)
		got := runDistNet(t, p, opts)
		for _, pid := range pids(got) {
			if slices.Contains(pids(clean), pid) {
				t.Fatalf("%s: ran on pid %d of the pooled fleet", name, pid)
			}
		}
		if g := pooled(t, base); g != f {
			t.Fatalf("%s: the pool holds %p, want the clean campaign's fleet %p", name, g, f)
		}
		sameBits(t, name+": core", got.Core.Data, clean.Core.Data)
	}
}

// TestFleetConcurrentCheckouts: two campaigns of one signature at once get
// two fleets, and the pool keeps one of them.
func TestFleetConcurrentCheckouts(t *testing.T) {
	closeIdle()
	opts, err := Options{Workers: 2, WorkDir: "unused"}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	var fs [2]*fleet
	for i := range fs {
		if fs[i], _, err = checkout(context.Background(), opts); err != nil {
			t.Fatal(err)
		}
	}
	if fs[0] == fs[1] {
		t.Fatal("one fleet leased twice")
	}
	for _, f := range fs {
		waitJoined(t, f)
	}
	release(fs[0], true)
	release(fs[1], true)
	if g := pooled(t, opts); g != fs[0] || !gone(fs[1]) {
		t.Fatalf("pool holds %p (want %p), second fleet's processes live: %d", g, fs[0], fs[1].procsLive.Load())
	}
	if f, reused, err := checkout(context.Background(), opts); err != nil || f != fs[0] || !reused {
		t.Fatalf("checkout after release: %p reused=%v err=%v, want the pooled fleet", f, reused, err)
	} else {
		release(f, true)
	}
}

// TestFleetIdleShutdown: a pooled fleet shuts itself down when its idle
// timer fires — fleetIdle after the campaign; here, at once.
func TestFleetIdleShutdown(t *testing.T) {
	closeIdle()
	p := tinyPartition(t, 1, 244)
	opts := fleetOpts()
	joinedFleet(t, opts)
	runDistNet(t, p, opts)
	f := pooled(t, opts)
	if f == nil {
		t.Fatal("a clean campaign's fleet was not pooled")
	}
	pool.mu.Lock()
	f.idle.Reset(0)
	pool.mu.Unlock()
	waitFor(t, "the idle fleet to shut down", func() bool { return pooled(t, opts) == nil && gone(f) })
	// Shutdown leaves the fleet's lock free: its roster still reads.
	if got := len(f.roster()); got != len(f.procs) {
		t.Fatalf("roster of a shut-down fleet has %d workers, want %d", got, len(f.procs))
	}
}

// TestNoGoroutineOutlivesAClosedFleet: once every fleet — pooled or
// dedicated — is shut down, the coordinator is back to the goroutines it
// had before.
func TestNoGoroutineOutlivesAClosedFleet(t *testing.T) {
	closeIdle()
	before := runtime.NumGoroutine()
	p := tinyPartition(t, 1, 245)
	opts := fleetOpts()
	joinedFleet(t, opts)
	runDistNet(t, p, opts)
	runDistNet(t, p, opts)
	opts.Kill = faults.KillSpec{Seed: 4, Kills: 1}
	runDistNet(t, p, opts)
	closeIdle()
	waitFor(t, fmt.Sprintf("goroutines back to %d", before), func() bool { return runtime.NumGoroutine() <= before })
}

// TestHandshakeDropsStrangers: a connection whose hello names an id outside
// the fleet, or the id of a worker already connected, is dropped before it
// becomes a worker — a worker process started by hand can never join a
// fleet — and never leased a task: the campaign after runs on the fleet's
// own worker alone.
func TestHandshakeDropsStrangers(t *testing.T) {
	closeIdle()
	opts := Options{Method: core.SELECT, Ranks: tucker.UniformRanks(5, 2), Workers: 1}
	f := joinedFleet(t, opts)
	for _, id := range []int{1, 7, -1, 0} {
		conn, err := net.Dial("tcp", f.lis.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		hello, err := json.Marshal(helloMsg{Worker: id, PID: os.Getpid()})
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(conn, frameHello, hello); err != nil {
			t.Fatal(err)
		}
		if err := conn.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if typ, _, err := readFrame(conn); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("hello naming worker %d: read frame type %d, error %v; want the connection dropped", id, typ, err)
		}
	}
	res := runDistNet(t, tinyPartition(t, 1, 246), opts)
	if len(res.Workers) != 1 || res.Workers[0].PID != f.procs[0].Process.Pid {
		t.Fatalf("roster %+v, want the fleet's one worker, pid %d", res.Workers, f.procs[0].Process.Pid)
	}
	if got, want := res.Workers[0].Tasks, res.Phase1.Tasks+res.Phase3.Tasks; got != want {
		t.Fatalf("the fleet's worker ran %d of %d tasks", got, want)
	}
	f.mu.Lock()
	connected, workers := f.connected, len(f.workers)
	f.mu.Unlock()
	if connected != 1 || workers != 1 {
		t.Fatalf("%d hellos accepted, %d workers registered; want the one spawned", connected, workers)
	}
}
