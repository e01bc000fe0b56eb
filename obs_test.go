package m2td

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/tucker"
)

// traceConfig is smallConfig with tracing on and accuracy skipped (the
// evaluate stage's span still appears, marked skipped=1).
func traceConfig() Config {
	cfg := smallConfig()
	cfg.Trace = true
	cfg.SkipAccuracy = true
	return cfg
}

// TestTraceGoldenStructure is the determinism contract of the span tree:
// the skeleton — names, hierarchy, counter values — must be byte-identical
// at any Parallel value; only durations and gauges may differ.
func TestTraceGoldenStructure(t *testing.T) {
	skeletons := make(map[int]string)
	for _, workers := range []int{1, 8} {
		cfg := traceConfig()
		cfg.Parallel = workers
		report, err := RunCtx(context.Background(), cfg)
		if err != nil {
			t.Fatalf("Parallel=%d: %v", workers, err)
		}
		if report.Trace == nil {
			t.Fatalf("Parallel=%d: Trace requested but Report.Trace is nil", workers)
		}
		skeletons[workers] = report.Trace.Root().Skeleton()

		// Root counters mirror the deterministic Report fields.
		root := report.Trace.Root()
		for _, c := range []struct {
			name string
			want int
		}{
			{"sims", report.NumSims},
			{"join_cells", report.JoinCells},
			{"sims_executed", report.ExecutedSims},
			{"sims_restored", report.RestoredSims},
			{"sims_retried", report.RetriedSims},
			{"sims_failed", report.FailedSims},
			{"cells_quarantined", report.QuarantinedCells},
		} {
			if got := root.Counter(c.name); got != int64(c.want) {
				t.Errorf("Parallel=%d: root counter %s = %d, want %d (Report)", workers, c.name, got, c.want)
			}
		}
	}
	if skeletons[1] != skeletons[8] {
		t.Errorf("skeleton differs between Parallel=1 and Parallel=8:\n--- Parallel=1\n%s\n--- Parallel=8\n%s",
			skeletons[1], skeletons[8])
	}
}

// pollCtx is a context whose Err turns Canceled at its at-th call and
// stays so, closing Done with it; at 0 never cancels. polls counts every
// Err call, so a run under at 0 measures how often an entry point polls.
type pollCtx struct {
	context.Context
	at    int64
	polls atomic.Int64
	done  chan struct{}
	once  sync.Once
}

func newPollCtx(at int64) *pollCtx {
	return &pollCtx{Context: context.Background(), at: at, done: make(chan struct{})}
}

func (c *pollCtx) Done() <-chan struct{} { return c.done }

func (c *pollCtx) Err() error {
	if n := c.polls.Add(1); c.at > 0 && n >= c.at {
		c.once.Do(func() { close(c.done) })
		return context.Canceled
	}
	return nil
}

// runningSpans lists the "/"-joined paths of the spans in root's tree,
// from depth from down, that are still running.
func runningSpans(root *obs.Span, from int) []string {
	var running, path []string
	root.Data().Walk(func(depth int, s *obs.SpanData) {
		path = append(path[:depth], s.Name)
		if depth >= from && s.Running {
			running = append(running, strings.Join(path, "/"))
		}
	})
	return running
}

// uncontained lists the spans in root's tree that do not contain the work
// they time: a child that ends after its parent, and a span shorter than
// the dur_ns gauge a worker process measured inside it (distnet's tasks).
func uncontained(root *obs.Span) []string {
	var bad, path []string
	var ends []int64
	root.Data().Walk(func(depth int, s *obs.SpanData) {
		path, ends = append(path[:depth], s.Name), append(ends[:depth], s.StartNS+s.DurNS)
		if depth > 0 && ends[depth] > ends[depth-1] {
			bad = append(bad, strings.Join(path, "/")+" ends after its parent")
		}
		if d, ok := s.Gauges["dur_ns"]; ok && s.DurNS < d {
			bad = append(bad, fmt.Sprintf("%s lasts %d ns, its ~dur_ns %d", strings.Join(path, "/"), s.DurNS, d))
		}
	})
	return bad
}

// TestSpansFinished is the span contract of DESIGN.md §7.2, checked
// where spans run: every span an entry point starts under its caller's
// span or trace is finished when the call returns — on success, and for
// the entry points that poll their context, on every cancellation return
// path (a pollCtx cancelling at each poll k of a full run in turn) — and
// contains its work: its children, and a worker's measured interval. A
// completed run's skeleton is the same at Parallel 1 and 8, so nothing
// timing- or scheduling-derived entered a counter; the RunCtx rows also
// pin each executor's decompose children.
func TestSpansFinished(t *testing.T) {
	x := facadeTestTensor()
	cfg := smallConfig()
	space, err := cfg.Space()
	if err != nil {
		t.Fatal(err)
	}
	part := partitionAt(t, space, space.TimeMode(), 0.5, 0.5, 7)
	pcfg := partition.DefaultConfig(space.Order(), space.TimeMode(), eval.PairsFor(space.Sys.Name()))
	pcfg.PivotFrac, pcfg.FreeFrac = 0.3, 0.3

	// run calls the entry point at the given Parallel and returns the
	// trace that holds its spans: the caller's ("caller", whose root the
	// entry point must leave running) or the one the entry point returns.
	type row struct {
		name  string
		polls bool
		run   func(ctx context.Context, parallel int) (*obs.Trace, error)
	}
	runCtx := func(mut func(*Config)) func(context.Context, int) (*obs.Trace, error) {
		return func(ctx context.Context, parallel int) (*obs.Trace, error) {
			c := traceConfig()
			c.Parallel = parallel
			mut(&c)
			report, err := RunCtx(ctx, c)
			if err != nil {
				return nil, err
			}
			return report.Trace, nil
		}
	}
	tuckerCtx := func(opts TuckerOptions) func(context.Context, int) (*obs.Trace, error) {
		return func(ctx context.Context, parallel int) (*obs.Trace, error) {
			tr := obs.New("caller")
			opts.Parallel, opts.Trace = parallel, tr
			_, err := TuckerCtx(ctx, x, opts)
			return tr, err
		}
	}
	decomposeCtx := func(shards int) func(context.Context, int) (*obs.Trace, error) {
		return func(ctx context.Context, parallel int) (*obs.Trace, error) {
			tr := obs.New("caller")
			_, err := core.DecomposeCtx(ctx, part, core.Options{
				Method: core.SELECT, Ranks: tucker.UniformRanks(space.Order(), 2),
				Workers: parallel, Shards: shards, Span: tr.Root(),
			})
			return tr, err
		}
	}
	rows := []row{
		{"RunCtx", false, runCtx(func(*Config) {})},
		{"RunCtx/Workers", false, runCtx(func(c *Config) { c.Workers = 2 })},
		{"RunCtx/Distributed", false, runCtx(func(c *Config) { c.Distributed = &DistributedConfig{Workers: 2} })},
		{"BaselineCtx", false, func(ctx context.Context, parallel int) (*obs.Trace, error) {
			c := traceConfig()
			c.Parallel = parallel
			report, err := BaselineCtx(ctx, c, "random", 60)
			if err != nil {
				return nil, err
			}
			return report.Trace, nil
		}},
		{"TuckerCtx/HOSVD", true, tuckerCtx(TuckerOptions{Rank: 2})},
		{"TuckerCtx/HOOI", true, tuckerCtx(TuckerOptions{Rank: 2, HOOI: true})},
		{"core.DecomposeCtx/Shards1", true, decomposeCtx(1)},
		{"core.DecomposeCtx/Shards3", true, decomposeCtx(3)},
		{"partition.GenerateCtx", true, func(ctx context.Context, parallel int) (*obs.Trace, error) {
			tr := obs.New("caller")
			_, err := partition.GenerateCtx(ctx, space, pcfg, rand.New(rand.NewSource(7)),
				partition.SimOptions{Workers: parallel, Span: tr.Root()})
			return tr, err
		}},
	}
	// The decompose span's children, in order, on each executor.
	decompose := map[string][]string{
		"RunCtx":             {"factors", "core"},
		"RunCtx/Workers":     {"factors", "core"},
		"RunCtx/Distributed": {"upload", "phase1", "phase3"},
	}
	check := func(t *testing.T, what string, tr *obs.Trace) {
		t.Helper()
		from := 0
		if tr.Root().Name() == "caller" {
			from = 1
		}
		if running := runningSpans(tr.Root(), from); len(running) > 0 {
			t.Errorf("%s: spans still running after the call returned: %v\n%s", what, running, tr.Root().Skeleton())
		}
		if bad := uncontained(tr.Root()); len(bad) > 0 {
			t.Errorf("%s: spans that do not contain their work: %v", what, bad)
		}
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			skeletons := map[int]string{}
			for _, parallel := range []int{1, 8} {
				tr, err := r.run(context.Background(), parallel)
				if err != nil {
					t.Fatalf("Parallel=%d: %v", parallel, err)
				}
				check(t, "completed run", tr)
				skeletons[parallel] = tr.Root().Skeleton()
				if want, ok := decompose[r.name]; ok {
					var names []string
					for _, c := range tr.Root().Find("decompose").Children() {
						names = append(names, c.Name())
					}
					if !slices.Equal(names, want) {
						t.Errorf("Parallel=%d: decompose spans %v, want %v", parallel, names, want)
					}
				}
			}
			if skeletons[1] != skeletons[8] {
				t.Errorf("skeleton differs between Parallel=1 and Parallel=8:\n--- Parallel=1\n%s--- Parallel=8\n%s",
					skeletons[1], skeletons[8])
			}
			if !r.polls {
				return
			}
			full := newPollCtx(0)
			if _, err := r.run(full, 1); err != nil {
				t.Fatal(err)
			}
			for k := int64(1); k <= full.polls.Load(); k++ {
				tr, err := r.run(newPollCtx(k), 1)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("cancelled at poll %d of %d: err = %v, want context.Canceled", k, full.polls.Load(), err)
				}
				check(t, fmt.Sprintf("cancelled at poll %d", k), tr)
			}
		})
	}
}

// TestTraceSpanTaxonomy asserts the documented stage hierarchy exists:
// run → {partition → sub1/sub2, decompose → factors/core, evaluate} with
// per-mode children under factors — and no stitch span under decompose
// (TestNoConfigBuildsTheJoin has that for every executor).
func TestTraceSpanTaxonomy(t *testing.T) {
	report, err := RunCtx(context.Background(), traceConfig())
	if err != nil {
		t.Fatal(err)
	}
	root := report.Trace.Root()
	if root.Name() != "run" {
		t.Errorf("root = %q, want run", root.Name())
	}
	for _, path := range [][]string{
		{"partition"},
		{"partition", "sub1"},
		{"partition", "sub2"},
		{"decompose"},
		{"decompose", "factors"},
		{"decompose", "core"},
		{"evaluate"},
	} {
		if root.Find(path...) == nil {
			t.Errorf("span %v missing:\n%s", path, root.Skeleton())
		}
	}
	if d := root.Find("decompose"); d.Find("stitch") != nil || d.Counter("factored") != 1 {
		t.Errorf("default run: want no stitch span and factored=1 under decompose:\n%s", d.Skeleton())
	}
	// Every mode of the 5-way tensor gets a factor span; exactly one is
	// the pivot (double-pendulum with pivot "t" → mode4), decomposed as
	// concurrent x1/x2 sub-spans.
	factors := root.Find("decompose", "factors")
	modes := factors.Children()
	if len(modes) != 5 {
		t.Fatalf("factors has %d mode spans, want 5:\n%s", len(modes), factors.Skeleton())
	}
	pivots := 0
	for _, m := range modes {
		if m.Counter("pivot") == 1 {
			pivots++
			if m.Find("x1") == nil || m.Find("x2") == nil {
				t.Errorf("pivot span %s missing x1/x2 children", m.Name())
			}
		}
	}
	if pivots != 1 {
		t.Errorf("found %d pivot mode spans, want 1", pivots)
	}
	if got := root.Find("evaluate").Counter("skipped"); got != 1 {
		t.Errorf("evaluate skipped counter = %d, want 1", got)
	}
}

// TestTraceDisabledByDefault: no Trace flag, no trace — and the pipeline
// must tolerate the resulting nil spans everywhere.
func TestTraceDisabledByDefault(t *testing.T) {
	cfg := smallConfig()
	cfg.SkipAccuracy = true
	report, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.Trace != nil {
		t.Fatal("Report.Trace set without Config.Trace")
	}
}

// TestBaselineTrace checks the baseline pipeline's span taxonomy.
func TestBaselineTrace(t *testing.T) {
	cfg := traceConfig()
	report, err := BaselineCtx(context.Background(), cfg, "random", 60)
	if err != nil {
		t.Fatal(err)
	}
	if report.Trace == nil {
		t.Fatal("baseline trace missing")
	}
	root := report.Trace.Root()
	if root.Name() != "baseline" {
		t.Errorf("root = %q, want baseline", root.Name())
	}
	for _, path := range [][]string{{"simulate"}, {"decompose"}, {"evaluate"}} {
		if root.Find(path...) == nil {
			t.Errorf("span %v missing:\n%s", path, root.Skeleton())
		}
	}
	if got := root.Counter("sims_executed"); got != int64(report.ExecutedSims) {
		t.Errorf("root sims_executed = %d, want %d", got, report.ExecutedSims)
	}
}

// TestWriteTraceRoundTrip serializes a real run's trace and replays it,
// asserting the skeleton survives JSONL serialization bit-for-bit.
func TestWriteTraceRoundTrip(t *testing.T) {
	report, err := RunCtx(context.Background(), traceConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, report.Trace); err != nil {
		t.Fatal(err)
	}
	root, snapshot, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := root.Skeleton(), report.Trace.Root().Skeleton(); got != want {
		t.Errorf("replayed skeleton:\n%s\nwant:\n%s", got, want)
	}
	if snapshot == nil {
		t.Fatal("trace log carries no metrics snapshot")
	}
	if _, ok := snapshot["m2td_sims_executed_total"]; !ok {
		t.Error("snapshot missing m2td_sims_executed_total")
	}

	if err := WriteTrace(io.Discard, nil); err == nil {
		t.Error("WriteTrace on nil trace should error")
	}
}

// TestMetricsEndpoint runs the pipeline while the metrics listener is up
// and asserts the scrape deltas match the Report exactly, plus the expvar
// and pprof surfaces behind the same listener.
func TestMetricsEndpoint(t *testing.T) {
	srv, err := ServeMetrics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	scrape := func() string {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	value := func(expo, name string) int64 {
		t.Helper()
		for _, line := range strings.Split(expo, "\n") {
			fields := strings.Fields(line)
			if len(fields) == 2 && fields[0] == name {
				v, err := strconv.ParseInt(fields[1], 10, 64)
				if err != nil {
					t.Fatalf("metric %s: bad value %q", name, fields[1])
				}
				return v
			}
		}
		return 0
	}

	before := value(scrape(), "m2td_sims_executed_total")
	runsBefore := value(scrape(), "m2td_runs_total")
	cfg := smallConfig()
	cfg.SkipAccuracy = true
	report, err := RunCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	after := scrape()
	if got := value(after, "m2td_sims_executed_total") - before; got != int64(report.ExecutedSims) {
		t.Errorf("m2td_sims_executed_total delta = %d, want %d", got, report.ExecutedSims)
	}
	if got := value(after, "m2td_runs_total") - runsBefore; got != 1 {
		t.Errorf("m2td_runs_total delta = %d, want 1", got)
	}

	// The in-process snapshot agrees with the exposition.
	snap := obs.Default.Snapshot()
	if got := snap["m2td_sims_executed_total"]; got != int64(value(after, "m2td_sims_executed_total")) {
		t.Errorf("registry snapshot sims_executed = %v, scrape says %d", got, value(after, "m2td_sims_executed_total"))
	}

	// expvar and pprof share the listener.
	resp, err := http.Get("http://" + srv.Addr + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]json.RawMessage
	err = json.NewDecoder(resp.Body).Decode(&vars)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/debug/vars: %v", err)
	}
	if _, ok := vars["m2td"]; !ok {
		t.Error("/debug/vars missing the m2td metrics map")
	}
	resp, err = http.Get("http://" + srv.Addr + "/debug/pprof/goroutine?debug=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/goroutine status = %d", resp.StatusCode)
	}
}
