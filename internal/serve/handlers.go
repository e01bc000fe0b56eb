package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	m2td "repro"
	"repro/api"
	"repro/internal/obs"
)

// maxBodyBytes bounds request bodies; campaign specs and predict
// parameter vectors are tiny.
const maxBodyBytes = 1 << 20

// maxWait caps the status long-poll hold.
const maxWait = 5 * time.Minute

// Handler returns the server's full HTTP surface: the typed /v1/ API
// routes plus the obs diagnostics endpoints (/metrics, /debug/vars,
// /debug/pprof/) on one mux. Request latency is recorded server-wide and
// per tenant before the response is written.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(api.RouteSubmit, s.handleSubmit)
	mux.HandleFunc(api.RouteJobs, s.handleJobs)
	mux.HandleFunc(api.RouteStatus, s.handleStatus)
	mux.HandleFunc(api.RouteResult, s.handleResult)
	mux.HandleFunc(api.RoutePredict, s.handlePredict)
	mux.HandleFunc(api.RouteStats, s.handleStats)
	mux.HandleFunc(api.RouteHealth, s.handleHealth)
	diag := obs.Mux(s.opts.Registry)
	mux.Handle("/metrics", diag)
	mux.Handle("/debug/", diag)
	return s.instrument(mux)
}

// instrument wraps the mux with the latency histograms. A request counts
// toward a tenant's series only once that tenant has had a submission
// admitted (tenantSeries.key).
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		next.ServeHTTP(w, r)
		elapsed := time.Since(start).Seconds()
		s.metrics.requestSeconds.Observe(elapsed)
		if key, ok := s.series.key(r.Header.Get(api.TenantHeader)); ok {
			s.metrics.tenantRequestSeconds.WithKey(key).Observe(elapsed)
		}
	})
}

// maxTenantSeries caps the tenants with per-tenant metric series of their
// own. A cache hit under a fresh tenant name is admitted and costs no job,
// so without a cap one client cycling names grows /metrics without bound.
const maxTenantSeries = 64

// tenantSeries is the capped set of tenants that have their own series;
// every tenant beyond the cap is recorded under anon's. It names series
// only: quotas stay keyed by the real tenant.
type tenantSeries struct {
	mu  sync.RWMutex
	set map[string]bool
}

// admit records an admitted submission of tenant and returns the key its
// series are kept under: tenant itself while the set has room, anon after.
func (t *tenantSeries) admit(tenant string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.set[tenant] {
		return tenant
	}
	if len(t.set) >= maxTenantSeries {
		return "anon"
	}
	if t.set == nil {
		t.set = make(map[string]bool)
	}
	t.set[tenant] = true
	return tenant
}

// key returns the series a request naming tenant counts toward: its own
// once admitted, anon's for any other tenant once the set is full, and
// none before that — a header alone never creates a series.
func (t *tenantSeries) key(tenant string) (string, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	switch {
	case t.set[tenant]:
		return tenant, true
	case tenant != "" && len(t.set) >= maxTenantSeries:
		return "anon", true
	}
	return "", false
}

// validTenant reports whether name is 1-64 of [A-Za-z0-9_-]: the alphabet
// obs.SanitizeKey maps one-to-one, so two tenants never share a series.
func validTenant(name string) bool {
	if len(name) == 0 || len(name) > 64 {
		return false
	}
	for _, c := range []byte(name) {
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '_' || c == '-') {
			return false
		}
	}
	return true
}

// writeJSON writes a 200 with a JSON body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	// Encoding a wire struct cannot fail; a broken connection surfaces to
	// the client, not to us.
	_ = json.NewEncoder(w).Encode(v)
}

// writeErr writes the typed error envelope with its mapped status. The
// code→status table lives in the api package (api.HTTPStatus); the server
// adds nothing to it.
func writeErr(w http.ResponseWriter, e *api.Error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(api.HTTPStatus(e.Code))
	_ = json.NewEncoder(w).Encode(e)
}

// decodeBody decodes a request body strictly: a field the wire struct does
// not have — misspelt, or removed like the campaign's "sketch" — is an
// error, never a campaign silently run without it.
func decodeBody(r *http.Request, v any) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// submitRequest decodes a submit body and builds its campaign's config:
// whatever is wrong with either is the client's, an invalid_request.
func (s *Server) submitRequest(r *http.Request) (api.SubmitRequest, m2td.Config, *api.Error) {
	var req api.SubmitRequest
	if err := decodeBody(r, &req); err != nil {
		return req, m2td.Config{}, &api.Error{Code: api.CodeInvalidRequest, Message: "decode submit request: " + err.Error()}
	}
	cfg, err := s.buildConfig(req.Campaign)
	if err != nil {
		return req, m2td.Config{}, &api.Error{Code: api.CodeInvalidRequest, Message: err.Error()}
	}
	return req, cfg, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, cfg, apiErr := s.submitRequest(r)
	if apiErr != nil {
		writeErr(w, apiErr)
		return
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = r.Header.Get(api.TenantHeader)
	}
	if tenant == "" {
		tenant = "anon"
	}
	if !validTenant(tenant) {
		writeErr(w, &api.Error{Code: api.CodeInvalidRequest, Message: "tenant must be 1-64 of [A-Za-z0-9_-]"})
		return
	}
	resp, apiErr := s.submit(tenant, req.Priority, cfg, req.Campaign.TimeoutMS)
	if apiErr != nil {
		writeErr(w, apiErr)
		return
	}
	key := s.series.admit(tenant)
	s.metrics.tenantSubmits.WithKey(key).Inc()
	if resp.CacheHit {
		s.metrics.tenantCacheHits.WithKey(key).Inc()
	}
	writeJSON(w, resp)
}

func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, api.JobsResponse{Jobs: s.jobList()})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeErr(w, &api.Error{Code: api.CodeNotFound, Message: "no such job"})
		return
	}
	if waitArg := r.URL.Query().Get("wait"); waitArg != "" {
		wait, err := time.ParseDuration(waitArg)
		if err != nil || wait < 0 {
			writeErr(w, &api.Error{Code: api.CodeInvalidRequest, Message: "bad wait duration"})
			return
		}
		if wait > maxWait {
			wait = maxWait
		}
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case <-j.done:
		case <-timer.C:
		case <-r.Context().Done():
		}
	}
	s.mu.Lock()
	st := s.statusLocked(j)
	s.mu.Unlock()
	writeJSON(w, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeErr(w, &api.Error{Code: api.CodeNotFound, Message: "no such job"})
		return
	}
	s.mu.Lock()
	st := s.statusLocked(j)
	info := j.info
	s.mu.Unlock()
	switch st.State {
	case api.StateDone:
		writeJSON(w, api.ResultResponse{Job: st, Decomposition: info})
	case api.StateFailed:
		msg := "campaign failed"
		if st.Error != nil {
			msg = st.Error.Message
		}
		writeErr(w, &api.Error{Code: api.CodeJobFailed, Message: msg})
	default:
		writeErr(w, &api.Error{Code: api.CodeNotDone, Message: "campaign has not finished"})
	}
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeErr(w, &api.Error{Code: api.CodeNotFound, Message: "no such job"})
		return
	}
	var req api.PredictRequest
	if err := decodeBody(r, &req); err != nil {
		writeErr(w, &api.Error{Code: api.CodeInvalidRequest, Message: "decode predict request: " + err.Error()})
		return
	}
	s.mu.Lock()
	state := j.state
	s.mu.Unlock()
	if state != api.StateDone {
		writeErr(w, &api.Error{Code: api.CodeNotDone, Message: "campaign has not finished"})
		return
	}
	report, err := s.reportFor(j)
	if err != nil {
		writeErr(w, &api.Error{Code: api.CodeInternal, Message: "load decomposition: " + err.Error()})
		return
	}
	values, err := report.Predict(req.Params)
	if err != nil {
		writeErr(w, &api.Error{Code: api.CodeInvalidRequest, Message: err.Error()})
		return
	}
	writeJSON(w, api.PredictResponse{JobID: j.id, Values: values})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.stats())
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	writeJSON(w, api.HealthResponse{OK: true, Version: api.Version, Draining: draining})
}
