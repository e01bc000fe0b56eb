package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	m2td "repro"
	"repro/api"
	"repro/internal/obs"
	"repro/internal/store"
)

// TestErrorPathsAreTypedEnvelopes drives every route's error path over
// HTTP. Each response must be application/json, decode as an api.Error
// with a code, and carry that code's api.HTTPStatus.
func TestErrorPathsAreTypedEnvelopes(t *testing.T) {
	release := make(chan struct{})
	s, hs, _ := newTestServer(t, func(o *Options) {
		o.Executors, o.TenantQuota, o.MaxQueue = 1, 1, 1
		o.Runner = func(ctx context.Context, cfg m2td.Config) (*m2td.Report, error) {
			if cfg.Seed == 13 {
				return nil, errors.New("diverged")
			}
			select {
			case <-release:
				return cannedReport(), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	})
	defer close(release)

	send := func(method, path, body string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(method, hs.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, data
	}
	expect := func(what string, want api.ErrorCode, method, path, body string) {
		t.Helper()
		resp, data := send(method, path, body)
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", what, ct)
		}
		var e api.Error
		if err := json.Unmarshal(data, &e); err != nil || e.Code == "" {
			t.Errorf("%s: body %q is not an error envelope (%v)", what, data, err)
			return
		}
		if e.Code != want || resp.StatusCode != api.HTTPStatus(e.Code) {
			t.Errorf("%s: %d %s, want %d %s", what, resp.StatusCode, e.Code, api.HTTPStatus(want), want)
		}
	}
	campaign := func(tenant string, seed int64) string {
		return fmt.Sprintf(`{"tenant":%q,"campaign":{"system":"double-pendulum","resolution":4,"time_samples":3,"rank":2,"seed":%d}}`, tenant, seed)
	}
	submit := func(tenant string, seed int64) string {
		t.Helper()
		resp, data := send("POST", api.PathPrefix+"campaigns", campaign(tenant, seed))
		var sub api.SubmitResponse
		if err := json.Unmarshal(data, &sub); resp.StatusCode != http.StatusOK || err != nil {
			t.Fatalf("submit %s/%d: %d %s", tenant, seed, resp.StatusCode, data)
		}
		return sub.JobID
	}
	jobs := api.PathPrefix + "jobs/"

	failed := submit("t0", 13)
	send("GET", jobs+failed+"?wait=5s", "")
	expect("failed result", api.CodeJobFailed, "GET", jobs+failed+"/result", "")

	running := submit("t1", 1)
	waitRunning(t, s, 1)
	expect("unknown job status", api.CodeNotFound, "GET", jobs+"nope", "")
	expect("unknown job result", api.CodeNotFound, "GET", jobs+"nope/result", "")
	expect("unknown job predict", api.CodeNotFound, "POST", jobs+"nope/predict", `{"params":[0]}`)
	expect("bad wait", api.CodeInvalidRequest, "GET", jobs+running+"?wait=soon", "")
	expect("negative wait", api.CodeInvalidRequest, "GET", jobs+running+"?wait=-1s", "")
	expect("not-done result", api.CodeNotDone, "GET", jobs+running+"/result", "")
	expect("not-done predict", api.CodeNotDone, "POST", jobs+running+"/predict", `{"params":[0,0,0,0]}`)
	expect("malformed predict", api.CodeInvalidRequest, "POST", jobs+running+"/predict", `{"params":`)
	expect("malformed submit", api.CodeInvalidRequest, "POST", api.PathPrefix+"campaigns", `{"campaign":`)
	expect("bad tenant", api.CodeInvalidRequest, "POST", api.PathPrefix+"campaigns", campaign("a/b", 2))
	expect("quota", api.CodeQuotaExceeded, "POST", api.PathPrefix+"campaigns", campaign("t1", 2))
	submit("t2", 3) // fills the one-slot queue
	expect("queue full", api.CodeQueueFull, "POST", api.PathPrefix+"campaigns", campaign("t3", 4))
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	expect("draining", api.CodeShuttingDown, "POST", api.PathPrefix+"campaigns", campaign("t4", 5))
}

// TestUnadmittedTenantsAddNoSeries: a tenant header alone never creates a
// metric series; only a tenant with an admitted submission gets one, and
// tenants SanitizeKey used to fold ("team-a", "team_a") get one each.
func TestUnadmittedTenantsAddNoSeries(t *testing.T) {
	_, hs, c := newTestServer(t, func(o *Options) {
		o.Runner = func(context.Context, m2td.Config) (*m2td.Report, error) { return cannedReport(), nil }
	})
	tenantLines := func() int {
		n := 0
		for _, line := range strings.Split(fetch(t, hs.URL+"/metrics"), "\n") {
			if strings.HasPrefix(line, "m2td_serve_tenant_") {
				n++
			}
		}
		return n
	}
	health := func(tenant string) {
		req, err := http.NewRequest("GET", hs.URL+api.PathPrefix+"healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(api.TenantHeader, tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	before := tenantLines()
	for i := 0; i < 1000; i++ {
		health(fmt.Sprintf("probe-%d", i))
	}
	if after := tenantLines(); after != before {
		t.Fatalf("1000 unadmitted tenant headers grew the per-tenant lines %d → %d", before, after)
	}

	ctx := context.Background()
	for _, tenant := range []string{"team-a", "team_a"} {
		if _, err := c.Submit(ctx, api.SubmitRequest{Tenant: tenant, Campaign: tinySpec()}); err != nil {
			t.Fatal(err)
		}
		health(tenant)
	}
	prom := fetch(t, hs.URL+"/metrics")
	for _, series := range []string{"m2td_serve_tenant_submits_total_team:a 1", "m2td_serve_tenant_submits_total_team_a 1",
		"m2td_serve_tenant_request_seconds_team:a_count 1", "m2td_serve_tenant_request_seconds_team_a_count 1"} {
		if !strings.Contains(prom, series) {
			t.Errorf("/metrics lacks %q", series)
		}
	}
}

// TestTenantSeriesAreCapped: a cache hit costs no job, so 1000 tenants
// each submitting one cached spec must not grow /metrics past the cap —
// the tenants beyond it share anon's series — and leave no quota entry
// once the server is idle.
func TestTenantSeriesAreCapped(t *testing.T) {
	s, hs, c := newTestServer(t, func(o *Options) {
		o.Runner = func(context.Context, m2td.Config) (*m2td.Report, error) { return cannedReport(), nil }
	})
	ctx := context.Background()
	sub, err := c.Submit(ctx, api.SubmitRequest{Tenant: "first", Campaign: tinySpec()})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Wait(ctx, sub.JobID, 10*time.Second); err != nil || st.State != api.StateDone {
		t.Fatalf("seed campaign: %+v, %v", st, err)
	}
	const tenants = 1000
	for i := 0; i < tenants; i++ {
		tc := api.NewClient(hs.URL)
		tc.Tenant = fmt.Sprintf("cycle-%d", i)
		resp, err := tc.Submit(ctx, api.SubmitRequest{Tenant: tc.Tenant, Campaign: tinySpec()})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.CacheHit {
			t.Fatalf("tenant %d: %+v, want a cache hit", i, resp)
		}
	}

	series := map[string]int{}
	prom := fetch(t, hs.URL+"/metrics")
	for _, line := range strings.Split(prom, "\n") {
		for _, base := range []string{tenantSubmitsBase, tenantCacheHitsBase, tenantRequestSecondsBase} {
			if strings.HasPrefix(line, base+"_") && (base != tenantRequestSecondsBase || strings.Contains(line, "_count ")) {
				series[base]++
			}
		}
	}
	for _, base := range []string{tenantSubmitsBase, tenantCacheHitsBase, tenantRequestSecondsBase} {
		if n := series[base]; n == 0 || n > maxTenantSeries+1 {
			t.Errorf("%s: %d per-tenant series, want 1..%d", base, n, maxTenantSeries+1)
		}
	}
	// "first" holds one slot, so 1000 - 63 of the cycling tenants are anon.
	if want := fmt.Sprintf("%s_anon %d\n", tenantCacheHitsBase, tenants-maxTenantSeries+1); !strings.Contains(prom, want) {
		t.Errorf("/metrics lacks %q", strings.TrimSpace(want))
	}

	s.mu.Lock()
	load := len(s.tenantLoad)
	s.mu.Unlock()
	if load != 0 {
		t.Fatalf("idle server keeps %d tenantLoad entries, want 0", load)
	}
}

// TestStartCampaignShutdownLeaksNoGoroutines: Start, one real campaign
// over HTTP, then Shutdown must bring the goroutine count back to where
// it was.
func TestStartCampaignShutdownLeaksNoGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Store: st, Registry: obs.NewRegistry(), Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Start(context.Background())
	hs := httptest.NewServer(s.Handler())
	c := api.NewClient(hs.URL)
	ctx := context.Background()
	sub, err := c.Submit(ctx, api.SubmitRequest{Campaign: tinySpec()})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Wait(ctx, sub.JobID, 10*time.Second); err != nil || st.State != api.StateDone {
		t.Fatalf("campaign: %+v, %v", st, err)
	}
	hs.Close()
	sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d running, baseline %d\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
