package m2td

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
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
