package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	m2td "repro"
	"repro/api"
	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/tensor"
)

// cannedReport fabricates a minimal successful run report (order-3 core
// and factors), enough for the persist path; tests that predict use the
// real runner instead.
func cannedReport() *m2td.Report {
	factors := make([]*mat.Matrix, 3)
	for i := range factors {
		f := mat.New(2, 1)
		f.Data[0] = 1
		factors[i] = f
	}
	c := tensor.NewDense(tensor.Shape{1, 1, 1})
	c.Data[0] = 3.5
	return &m2td.Report{
		NumSims:       4,
		JoinCells:     8,
		Decomposition: &core.Result{Core: c, Factors: factors},
	}
}

// newTestServer spins up a Server over a fresh store and an
// httptest.Server around its handler. mutate tweaks Options before New.
func newTestServer(t *testing.T, mutate func(*Options)) (*Server, *httptest.Server, *api.Client) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Store: st, Registry: obs.NewRegistry(), Executors: 2, Parallel: 1}
	if mutate != nil {
		mutate(&opts)
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.Start(ctx)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		cancel()
		s.wg.Wait()
	})
	return s, hs, api.NewClient(hs.URL)
}

// newClientFor wraps an already-started Server in an httptest server and
// returns a typed client against it.
func newClientFor(t *testing.T, s *Server) *api.Client {
	t.Helper()
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return api.NewClient(hs.URL)
}

// tinySpec is a fast real campaign (a few dozen sims, sub-second).
func tinySpec() api.CampaignSpec {
	return api.CampaignSpec{System: "double-pendulum", Resolution: 4, TimeSamples: 3, Rank: 2}
}

func TestSubmitRunResultPredict(t *testing.T) {
	_, _, c := newTestServer(t, nil)
	ctx := context.Background()

	sub, err := c.Submit(ctx, api.SubmitRequest{Tenant: "team-a", Campaign: tinySpec()})
	if err != nil {
		t.Fatal(err)
	}
	if sub.JobID == "" || sub.Coalesced || sub.CacheHit {
		t.Fatalf("fresh submit: %+v", sub)
	}
	st, err := c.Wait(ctx, sub.JobID, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateDone {
		t.Fatalf("job state %s (err %v)", st.State, st.Error)
	}
	res, err := c.Result(ctx, sub.JobID)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Decomposition
	if d == nil || d.NumSims == 0 || len(d.CoreShape) == 0 || d.StoreName == "" {
		t.Fatalf("result: %+v", d)
	}
	if d.AccuracyValid {
		t.Fatal("server default should skip accuracy")
	}
	pred, err := c.Predict(ctx, sub.JobID, []float64{0.5, -0.5, 1.0, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(pred.Values) != 3 {
		t.Fatalf("predicted %d values, want 3 timestamps", len(pred.Values))
	}
}

func TestMalformedAndInvalidSubmissions(t *testing.T) {
	_, hs, c := newTestServer(t, nil)
	ctx := context.Background()

	// A body the wire struct cannot hold → 400 with the typed envelope:
	// garbage, and a field the API does not have — the removed "sketch"
	// must not run as an exact campaign, nor a misspelt field as a default.
	for name, raw := range map[string]string{
		"garbage":  "{not json",
		"sketch":   `{"campaign":{"sketch":{"keep_frac":0.1}}}`,
		"misspelt": `{"campaign":{"resolutoin":4}}`,
	} {
		resp, err := http.Post(hs.URL+api.PathPrefix+"campaigns", "application/json", strings.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
		var envelope api.Error
		if err := json.Unmarshal(body, &envelope); err != nil || envelope.Code != api.CodeInvalidRequest {
			t.Fatalf("%s: envelope %s (%v)", name, body, err)
		}
	}

	// Unknown system and out-of-range knobs → typed invalid_request.
	for name, spec := range map[string]api.CampaignSpec{
		"system":               {System: "no-such-system"},
		"method":               {Method: "no-such-method"},
		"density":              {PivotDensity: 2},
		"time_samples":         {TimeSamples: 257},
		"accuracy_sample_sims": {AccuracySampleSims: 65537},
		"pivot":                {Pivot: "no-such-pivot"},
		"pivot of another":     {System: "lorenz", Pivot: "phi1"},
	} {
		_, err := c.Submit(ctx, api.SubmitRequest{Campaign: spec})
		var apiErr *api.Error
		if !errors.As(err, &apiErr) || apiErr.Code != api.CodeInvalidRequest {
			t.Fatalf("%s: err %v, want invalid_request", name, err)
		}
	}
	// A tenant name is 1-64 of [A-Za-z0-9_-], or the submission is invalid.
	for _, tenant := range []string{"a.b", "team a", "ü", strings.Repeat("t", 65)} {
		if _, err := c.Submit(ctx, api.SubmitRequest{Tenant: tenant, Campaign: tinySpec()}); !isCode(err, api.CodeInvalidRequest) {
			t.Fatalf("tenant %q: err %v, want invalid_request", tenant, err)
		}
	}

	// Unknown job → 404 not_found on every job route.
	if _, err := c.Status(ctx, "nope", 0); !isCode(err, api.CodeNotFound) {
		t.Fatalf("status err %v", err)
	}
	if _, err := c.Result(ctx, "nope"); !isCode(err, api.CodeNotFound) {
		t.Fatalf("result err %v", err)
	}
	if _, err := c.Predict(ctx, "nope", nil); !isCode(err, api.CodeNotFound) {
		t.Fatalf("predict err %v", err)
	}
}

func isCode(err error, code api.ErrorCode) bool {
	var apiErr *api.Error
	return errors.As(err, &apiErr) && apiErr.Code == code
}

// blockingRunner returns a Runner that parks until released, so tests
// can hold campaigns in StateRunning deterministically.
func blockingRunner() (Runner, chan struct{}) {
	release := make(chan struct{})
	return func(ctx context.Context, cfg m2td.Config) (*m2td.Report, error) {
		select {
		case <-release:
			return cannedReport(), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}, release
}

func TestQuotaRejection(t *testing.T) {
	runner, release := blockingRunner()
	_, _, c := newTestServer(t, func(o *Options) {
		o.TenantQuota = 1
		o.Runner = runner
	})
	defer close(release)
	ctx := context.Background()

	first := tinySpec()
	if _, err := c.Submit(ctx, api.SubmitRequest{Tenant: "t1", Campaign: first}); err != nil {
		t.Fatal(err)
	}
	// A DIFFERENT campaign from the same tenant trips the quota (an
	// identical one would coalesce for free).
	second := tinySpec()
	second.Seed = 99
	_, err := c.Submit(ctx, api.SubmitRequest{Tenant: "t1", Campaign: second})
	if !isCode(err, api.CodeQuotaExceeded) {
		t.Fatalf("same-tenant second submit err %v, want quota_exceeded", err)
	}
	// Another tenant is unaffected.
	third := tinySpec()
	third.Seed = 77
	if _, err := c.Submit(ctx, api.SubmitRequest{Tenant: "t2", Campaign: third}); err != nil {
		t.Fatalf("cross-tenant submit: %v", err)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.QuotaRejected != 1 {
		t.Fatalf("quota_rejected = %d, want 1", stats.QuotaRejected)
	}
}

func TestCoalescingObservableViaMetrics(t *testing.T) {
	runner, release := blockingRunner()
	_, hs, c := newTestServer(t, func(o *Options) { o.Runner = runner })
	ctx := context.Background()

	spec := tinySpec()
	a, err := c.Submit(ctx, api.SubmitRequest{Tenant: "t1", Campaign: spec})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Submit(ctx, api.SubmitRequest{Tenant: "t2", Campaign: spec})
	if err != nil {
		t.Fatal(err)
	}
	if !b.Coalesced || b.JobID != a.JobID || b.Fingerprint != a.Fingerprint {
		t.Fatalf("identical submit did not coalesce: %+v vs %+v", a, b)
	}
	close(release)
	st, err := c.Wait(ctx, a.JobID, 5*time.Second)
	if err != nil || st.State != api.StateDone {
		t.Fatalf("wait: %+v, %v", st, err)
	}
	if st.Waiters != 2 {
		t.Fatalf("waiters = %d, want 2", st.Waiters)
	}

	// The dedupe is observable in both the typed stats and Prometheus.
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Coalesced != 1 || stats.Submits != 2 {
		t.Fatalf("stats: %+v", stats)
	}
	prom := fetch(t, hs.URL+"/metrics")
	if !strings.Contains(prom, "m2td_serve_coalesced_total 1") {
		t.Fatalf("/metrics missing coalesced counter:\n%s", prom)
	}
	if !strings.Contains(prom, "m2td_serve_tenant_submits_total_t1 1") {
		t.Fatalf("/metrics missing per-tenant counter:\n%s", prom)
	}
}

func fetch(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestCacheHitMissAndStoreFallback(t *testing.T) {
	runs := 0
	s, _, c := newTestServer(t, func(o *Options) {
		o.CacheSize = 1
		o.Runner = func(ctx context.Context, cfg m2td.Config) (*m2td.Report, error) {
			runs++
			return cannedReport(), nil
		}
	})
	ctx := context.Background()

	specA, specB := tinySpec(), tinySpec()
	specB.Seed = 2

	a, err := c.Submit(ctx, api.SubmitRequest{Campaign: specA})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, a.JobID, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Identical resubmission: LRU hit, no recompute, terminal at submit.
	a2, err := c.Submit(ctx, api.SubmitRequest{Campaign: specA})
	if err != nil {
		t.Fatal(err)
	}
	if !a2.CacheHit || a2.State != api.StateDone || a2.JobID != a.JobID {
		t.Fatalf("cache hit: %+v", a2)
	}

	// A different campaign evicts A from the size-1 LRU...
	b, err := c.Submit(ctx, api.SubmitRequest{Campaign: specB})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, b.JobID, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// ...so A now comes back from the durable store, still without
	// recompute.
	a3, err := c.Submit(ctx, api.SubmitRequest{Campaign: specA})
	if err != nil {
		t.Fatal(err)
	}
	if !a3.StoreHit || a3.State != api.StateDone {
		t.Fatalf("store hit: %+v", a3)
	}
	if runs != 2 {
		t.Fatalf("runner ran %d times, want 2", runs)
	}
	stats, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheHits != 1 || stats.StoreHits != 1 {
		t.Fatalf("stats: %+v", stats)
	}
	_ = s
}

// TestStoreHitAcrossRestart proves results survive a process restart: a
// second server over the same store directory serves the decomposition
// without recompute, and predictions still work (the decomposition is
// reloaded from disk).
func TestStoreHitAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := New(Options{Store: st1, Registry: obs.NewRegistry(), Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(ctx)
	s1.Start(ctx1)
	hs1 := httptest.NewServer(s1.Handler())
	c1 := api.NewClient(hs1.URL)
	sub, err := c1.Submit(ctx, api.SubmitRequest{Campaign: tinySpec()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Wait(ctx, sub.JobID, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	want, err := c1.Predict(ctx, sub.JobID, []float64{0.5, -0.5, 1.0, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	hs1.Close()
	cancel1()
	s1.wg.Wait()

	// "Restart": fresh server, same directory, empty caches.
	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(Options{Store: st2, Registry: obs.NewRegistry(), Parallel: 1,
		Runner: func(context.Context, m2td.Config) (*m2td.Report, error) {
			t.Error("restarted server recomputed a stored campaign")
			return nil, errors.New("unexpected recompute")
		}})
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(ctx)
	s2.Start(ctx2)
	hs2 := httptest.NewServer(s2.Handler())
	defer func() { hs2.Close(); cancel2(); s2.wg.Wait() }()
	c2 := api.NewClient(hs2.URL)

	sub2, err := c2.Submit(ctx, api.SubmitRequest{Campaign: tinySpec()})
	if err != nil {
		t.Fatal(err)
	}
	if !sub2.StoreHit || sub2.State != api.StateDone {
		t.Fatalf("restart submit: %+v", sub2)
	}
	got, err := c2.Predict(ctx, sub2.JobID, []float64{0.5, -0.5, 1.0, 1.5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Values {
		if diff := got.Values[i] - want.Values[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("prediction drifted across restart: %v vs %v", got.Values, want.Values)
		}
	}
}

func TestPriorityOrderAndQueueFull(t *testing.T) {
	runner, release := blockingRunner()
	var orderMu sync.Mutex // the runner goroutine appends, the test reads
	var order []int64
	s, _, c := newTestServer(t, func(o *Options) {
		o.Executors = 1
		o.MaxQueue = 2
		o.Runner = func(ctx context.Context, cfg m2td.Config) (*m2td.Report, error) {
			orderMu.Lock()
			order = append(order, cfg.Seed)
			orderMu.Unlock()
			return runner(ctx, cfg)
		}
	})
	ctx := context.Background()

	submit := func(seed int64, priority int) (*api.SubmitResponse, error) {
		spec := tinySpec()
		spec.Seed = seed
		return c.Submit(ctx, api.SubmitRequest{Priority: priority, Campaign: spec})
	}
	// Seed 1 occupies the single executor; 2 (low) and 3 (high) queue.
	if _, err := submit(1, 0); err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, 1)
	if _, err := submit(2, 0); err != nil {
		t.Fatal(err)
	}
	last, err := submit(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Queue (cap 2) is full now.
	if _, err := submit(4, 0); !isCode(err, api.CodeQueueFull) {
		t.Fatalf("overflow submit err %v, want queue_full", err)
	}
	st, err := c.Status(ctx, last.JobID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.QueuePosition != 1 {
		t.Fatalf("high-priority queue position %d, want 1", st.QueuePosition)
	}
	close(release)
	if _, err := c.Wait(ctx, last.JobID, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		orderMu.Lock()
		n := len(order)
		orderMu.Unlock()
		if n >= 3 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	orderMu.Lock()
	defer orderMu.Unlock()
	if len(order) != 3 || order[0] != 1 || order[1] != 3 || order[2] != 2 {
		t.Fatalf("run order %v, want [1 3 2] (priority beats FIFO)", order)
	}
}

func waitRunning(t *testing.T, s *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		running := s.running
		s.mu.Unlock()
		if running >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("server never reached %d running jobs", want)
}

func TestGracefulDrain(t *testing.T) {
	runner, release := blockingRunner()
	s, _, c := newTestServer(t, func(o *Options) { o.Runner = runner })
	ctx := context.Background()

	sub, err := c.Submit(ctx, api.SubmitRequest{Campaign: tinySpec()})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, 1)

	drained := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		drained <- s.Shutdown(sctx)
	}()

	// Draining servers reject new work with the typed code.
	deadline := time.Now().Add(5 * time.Second)
	for {
		spec := tinySpec()
		spec.Seed = 42
		_, err = c.Submit(ctx, api.SubmitRequest{Campaign: spec})
		if isCode(err, api.CodeShuttingDown) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("draining submit err %v, want shutting_down", err)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The in-flight campaign still finishes.
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	st, err := c.Status(ctx, sub.JobID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != api.StateDone {
		t.Fatalf("in-flight job after drain: %s", st.State)
	}
	health, err := c.Health(ctx)
	if err != nil || !health.Draining {
		t.Fatalf("health: %+v, %v", health, err)
	}
}

func TestBuildConfigDistributedDispatch(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Store: st, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	// No size triggers the process engine: only the spec dispatches onto it.
	cfg, err := s.buildConfig(api.CampaignSpec{System: "double-pendulum", Resolution: 4})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Distributed != nil {
		t.Fatalf("campaign dispatched without asking: %+v", cfg.Distributed)
	}
	// An explicit spec dispatches, as it always did.
	cfg, err = s.buildConfig(api.CampaignSpec{Resolution: 3, Distributed: &api.DistSpec{Workers: 2, Shards: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Distributed == nil || cfg.Distributed.Workers != 2 || cfg.Distributed.Shards != 4 {
		t.Fatalf("explicit dispatch: %+v", cfg.Distributed)
	}
	// Aliases collapse onto one fingerprint.
	c1, err := s.buildConfig(api.CampaignSpec{System: "LORENZ", Method: "M2TD-SELECT", Resolution: 3})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s.buildConfig(api.CampaignSpec{System: "lorenz", Method: "select", Resolution: 3})
	if err != nil {
		t.Fatal(err)
	}
	if c1.Fingerprint() != c2.Fingerprint() {
		t.Fatalf("aliases did not collapse:\n%q\n%q", c1.Fingerprint(), c2.Fingerprint())
	}
}
