package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSpanSafety exercises every Span/Trace method on nil receivers:
// disabled observability must be a no-op, never a panic.
func TestNilSpanSafety(t *testing.T) {
	var s *Span
	if c := s.Start("child"); c != nil {
		t.Fatalf("nil.Start returned non-nil span")
	}
	s.Finish()
	s.Add("a", 1)
	s.Set("b", 2)
	s.SetGauge("g", 3)
	s.AddGauge("g", 4)
	if got := s.Name(); got != "" {
		t.Errorf("nil.Name() = %q, want \"\"", got)
	}
	if got := s.Duration(); got != 0 {
		t.Errorf("nil.Duration() = %v, want 0", got)
	}
	if got := s.Counter("a"); got != 0 {
		t.Errorf("nil.Counter() = %d, want 0", got)
	}
	if got := s.Children(); got != nil {
		t.Errorf("nil.Children() = %v, want nil", got)
	}
	if got := s.Find("x", "y"); got != nil {
		t.Errorf("nil.Find() = %v, want nil", got)
	}
	s.WithVitals(nil)() // returned closure must be callable
	if got := s.Skeleton(); got != "" {
		t.Errorf("nil.Skeleton() = %q, want \"\"", got)
	}
	if got := s.Data(); got != nil {
		t.Errorf("nil.Data() = %v, want nil", got)
	}

	var tr *Trace
	if got := tr.Root(); got != nil {
		t.Errorf("nil trace Root() = %v, want nil", got)
	}
	tr.Finish()
}

// TestSpanTree verifies hierarchy, counters vs gauges, Find, and the
// skeleton's exclusion of non-deterministic gauges.
func TestSpanTree(t *testing.T) {
	tr := New("run")
	root := tr.Root()
	p := root.Start("partition")
	p.Add("sims", 10)
	p.Add("sims", 6)
	p.SetGauge("allocs", 12345)
	sub := p.Start("sub1")
	sub.Set("cells", 99)
	sub.Finish()
	p.Finish()
	d := root.Start("decompose")
	d.Finish()
	tr.Finish()

	if got := root.Counter("missing"); got != 0 {
		t.Errorf("missing counter = %d, want 0", got)
	}
	if got := p.Counter("sims"); got != 16 {
		t.Errorf("sims counter = %d, want 16", got)
	}
	if got := root.Find("partition", "sub1"); got != sub {
		t.Errorf("Find(partition, sub1) = %v, want the sub1 span", got)
	}
	if got := root.Find("partition", "nope"); got != nil {
		t.Errorf("Find of missing path = %v, want nil", got)
	}
	kids := root.Children()
	if len(kids) != 2 || kids[0].Name() != "partition" || kids[1].Name() != "decompose" {
		t.Fatalf("children = %v, want [partition decompose]", kids)
	}

	want := "run\n  partition [sims=16]\n    sub1 [cells=99]\n  decompose\n"
	if got := root.Skeleton(); got != want {
		t.Errorf("Skeleton:\n%s\nwant:\n%s", got, want)
	}
	if strings.Contains(root.Skeleton(), "allocs") {
		t.Error("skeleton leaked a gauge")
	}
	// SpanData skeleton must match the live skeleton.
	if got := root.Data().Skeleton(); got != want {
		t.Errorf("Data().Skeleton:\n%s\nwant:\n%s", got, want)
	}
}

// TestSpanFinishOnce checks that the first Finish wins.
func TestSpanFinishOnce(t *testing.T) {
	s := newSpan("x")
	s.Finish()
	d := s.Duration()
	time.Sleep(5 * time.Millisecond)
	s.Finish()
	if got := s.Duration(); got != d {
		t.Errorf("second Finish changed duration: %v -> %v", d, got)
	}
}

// TestSpanConcurrentChildren fills sibling spans from many goroutines;
// run with -race this asserts the locking discipline.
func TestSpanConcurrentChildren(t *testing.T) {
	tr := New("run")
	root := tr.Root()
	const n = 8
	spans := make([]*Span, n)
	for i := range spans { // serial creation for deterministic order
		spans[i] = root.Start(fmt.Sprintf("mode%d", i))
	}
	var wg sync.WaitGroup
	for i, s := range spans {
		wg.Add(1)
		go func(i int, s *Span) {
			defer wg.Done()
			s.Add("rank", int64(i))
			s.SetGauge("allocs", int64(i*100))
			s.Finish()
		}(i, s)
	}
	wg.Wait()
	tr.Finish()
	kids := root.Children()
	for i, c := range kids {
		if want := fmt.Sprintf("mode%d", i); c.Name() != want {
			t.Errorf("child %d = %q, want %q", i, c.Name(), want)
		}
	}
}

// TestWithVitals checks that the closure records an allocs gauge and the
// extra reader delta, and finishes the span.
func TestWithVitals(t *testing.T) {
	tr := New("run")
	s := tr.Root().Start("stage")
	base := int64(7)
	done := s.WithVitals(map[string]func() int64{"strips": func() int64 { return base }})
	base = 19
	done()
	d := s.Data()
	if got := d.Gauges["strips"]; got != 12 {
		t.Errorf("strips gauge = %d, want 12", got)
	}
	if _, ok := d.Gauges["allocs"]; !ok {
		t.Error("allocs gauge missing")
	}
	if d.DurNS <= 0 {
		t.Error("span not finished by WithVitals closure")
	}
}

func TestRegistryCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "help")
	c.Inc()
	c.Add(4)
	c.Add(-100) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if again := r.Counter("test_total", "other help"); again != c {
		t.Error("get-or-create returned a different counter")
	}
	g := r.Gauge("test_gauge", "help")
	g.Add(3)
	g.Add(-1)
	g.Set(10)
	if got := g.Value(); got != 10 {
		t.Errorf("gauge = %d, want 10", got)
	}
	r.FuncGauge("test_func", "help", func() int64 { return 42 })
	if got := r.Snapshot()["test_func"]; got != int64(42) {
		t.Errorf("func gauge = %v, want 42", got)
	}

	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter name as a gauge did not panic")
		}
	}()
	r.Gauge("test_total", "wrong kind")
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "help", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 5, 50} {
		h.Observe(v)
	}
	if got := h.Count(); got != 4 {
		t.Errorf("count = %d, want 4", got)
	}
	if got := h.Sum(); got != 55.55 {
		t.Errorf("sum = %g, want 55.55", got)
	}
	var b bytes.Buffer
	h.writeProm(&b)
	out := b.String()
	for _, want := range []string{
		`test_seconds_bucket{le="0.1"} 1`,
		`test_seconds_bucket{le="1"} 2`,
		`test_seconds_bucket{le="10"} 3`,
		`test_seconds_bucket{le="+Inf"} 4`,
		`test_seconds_count 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "counts a").Add(3)
	r.Gauge("b_now", "gauges b").Set(-2)
	var b bytes.Buffer
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP a_total counts a",
		"# TYPE a_total counter",
		"a_total 3",
		"# TYPE b_now gauge",
		"b_now -2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Registration order is stable.
	if strings.Index(out, "a_total") > strings.Index(out, "b_now") {
		t.Error("exposition not in registration order")
	}
}

func TestSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Add(7)
	r.Histogram("h_seconds", "", nil).Observe(0.2)
	snap := r.Snapshot()
	if got := snap["c_total"]; got != int64(7) {
		t.Errorf("snapshot c_total = %v, want 7", got)
	}
	if got := snap["h_seconds_count"]; got != int64(1) {
		t.Errorf("snapshot h_seconds_count = %v, want 1", got)
	}
}

// TestJSONLRoundTrip serializes a span tree plus snapshot and reads it
// back, asserting the skeleton and the snapshot survive.
func TestJSONLRoundTrip(t *testing.T) {
	tr := New("run")
	root := tr.Root()
	p := root.Start("partition")
	p.Add("sims", 64)
	p.SetGauge("allocs", 1234)
	c := p.Start("sub1")
	c.Set("cells", 512)
	c.Finish()
	p.Finish()
	tr.Finish()

	snap := map[string]any{"m2td_runs_total": int64(1), "m2td_sim_duration_seconds_sum": 0.5}
	var b bytes.Buffer
	if err := WriteJSONL(&b, root.Data(), snap); err != nil {
		t.Fatal(err)
	}
	got, gotSnap, err := ReadJSONL(&b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Skeleton() != root.Skeleton() {
		t.Errorf("round-trip skeleton:\n%s\nwant:\n%s", got.Skeleton(), root.Skeleton())
	}
	if got.Find("partition").Gauges["allocs"] != 1234 {
		t.Error("gauges lost in round trip")
	}
	if gotSnap["m2td_runs_total"] != float64(1) { // JSON numbers decode as float64
		t.Errorf("snapshot m2td_runs_total = %v", gotSnap["m2td_runs_total"])
	}
}

// TestJSONLRunning: a span snapshotted before its Finish is marked
// running and keeps the mark through the log; a finished tree writes no
// "running" key at all, so logs of finished runs are unchanged.
func TestJSONLRunning(t *testing.T) {
	tr := New("run")
	open := tr.Root().Start("open")
	tr.Root().Start("done").Finish()
	var b bytes.Buffer
	if err := WriteJSONL(&b, tr.Root().Data(), nil); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadJSONL(&b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Running || !got.Find("open").Running || got.Find("done").Running {
		t.Errorf("running marks after round trip: root %v open %v done %v, want true true false",
			got.Running, got.Find("open").Running, got.Find("done").Running)
	}

	open.Finish()
	tr.Finish()
	b.Reset()
	if err := WriteJSONL(&b, tr.Root().Data(), nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "running") {
		t.Errorf("finished trace wrote a running key:\n%s", b.String())
	}
}

const metaLine = `{"kind":"meta","version":1,"trace":"run"}` + "\n"

func TestReadJSONLErrors(t *testing.T) {
	for _, c := range []struct{ name, log, want string }{
		{"empty", "", "no meta line"},
		{"malformed", "not json\n", "line 1"},
		{"repeated id", metaLine +
			`{"kind":"span","name":"run"}` + "\n" +
			`{"kind":"span","id":1,"parent":0,"name":"a"}` + "\n" +
			`{"kind":"span","id":1,"parent":0,"name":"b"}` + "\n", "line 4: span id 1 repeated"},
		{"own parent", metaLine +
			`{"kind":"span","name":"run"}` + "\n" +
			`{"kind":"span","id":1,"parent":1,"name":"a"}` + "\n", "line 3: span 1 references unknown parent 1"},
		{"second root", metaLine +
			`{"kind":"span","name":"run"}` + "\n" +
			`{"kind":"span","id":1,"name":"again"}` + "\n", "line 3: second root"},
	} {
		_, _, err := ReadJSONL(strings.NewReader(c.log))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// FuzzReadJSONL: ReadJSONL rejects a log or returns a tree holding
// exactly one node per span line, and the tree survives WriteJSONL →
// ReadJSONL with its skeleton intact.
func FuzzReadJSONL(f *testing.F) {
	tr := New("run")
	p := tr.Root().Start("partition")
	p.Add("sims", 64)
	p.SetGauge("allocs", 7)
	p.Start("sub1").Finish()
	p.Finish()
	tr.Root().Start("open")
	var b bytes.Buffer
	if err := WriteJSONL(&b, tr.Root().Data(), map[string]any{"m2td_runs_total": 1}); err != nil {
		f.Fatal(err)
	}
	f.Add(b.String())
	f.Add(metaLine)
	f.Add(metaLine + `{"kind":"span","name":"run"}` + "\n" +
		`{"kind":"span","id":1,"parent":0,"name":"a"}` + "\n" +
		`{"kind":"span","id":1,"parent":1,"name":"b"}` + "\n" +
		`{"kind":"span","id":2,"parent":0,"name":"c"}` + "\n")
	f.Add(metaLine + `{"kind":"span","name":"run"}` + "\n" + `{"kind":"span","id":1,"parent":1,"name":"a"}` + "\n")
	f.Fuzz(func(t *testing.T, log string) {
		root, _, err := ReadJSONL(strings.NewReader(log))
		if err != nil {
			return
		}
		spanLines := 0
		for _, line := range strings.Split(log, "\n") {
			var ev Event
			if json.Unmarshal([]byte(line), &ev) == nil && ev.Kind == "span" {
				spanLines++
			}
		}
		nodes := 0
		root.Walk(func(int, *SpanData) { nodes++ })
		if nodes != spanLines {
			t.Fatalf("tree has %d nodes for %d span lines", nodes, spanLines)
		}
		var out bytes.Buffer
		if err := WriteJSONL(&out, root, nil); err != nil {
			t.Fatal(err)
		}
		again, _, err := ReadJSONL(&out)
		if err != nil {
			t.Fatalf("re-read of a written log: %v", err)
		}
		if again.Skeleton() != root.Skeleton() {
			t.Fatalf("skeleton changed through WriteJSONL → ReadJSONL:\n%s\nwant:\n%s", again.Skeleton(), root.Skeleton())
		}
	})
}

// TestServeMetrics starts the HTTP listener on a free port and scrapes
// all three surfaces: Prometheus text, expvar JSON, and a pprof profile.
func TestServeMetrics(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("serve_test_total", "help").Add(9)
	srv, err := ServeMetrics("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}

	if body := get("/metrics"); !strings.Contains(body, "serve_test_total 9") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(get("/debug/vars")), &vars); err != nil {
		t.Errorf("/debug/vars is not JSON: %v", err)
	}
	if body := get("/debug/pprof/goroutine?debug=1"); !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/goroutine unexpected body:\n%s", body)
	}
}
