package serve

import (
	"repro/internal/obs"
)

// latencyBounds buckets request and job latencies (seconds): sub-ms
// cache hits through multi-minute campaigns.
var latencyBounds = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300,
}

// metrics is the server's observability surface: server-wide counters
// and latency histograms, plus get-or-create per-tenant instruments.
// Counters are the single source of truth — the typed /v1/stats endpoint
// reads the same values Prometheus scrapes.
type metrics struct {
	reg *obs.Registry

	submits       *obs.Counter
	coalesced     *obs.Counter
	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter
	storeHits     *obs.Counter
	quotaRejected *obs.Counter
	queueRejected *obs.Counter
	jobsDone      *obs.Counter
	jobsFailed    *obs.Counter
	simSetHits    *obs.Counter
	simsExecuted  *obs.Counter
	simsRestored  *obs.Counter

	requestSeconds *obs.Histogram
	jobSeconds     *obs.Histogram

	tenantSubmits        *obs.KeyedCounter
	tenantCacheHits      *obs.KeyedCounter
	tenantRequestSeconds *obs.KeyedHistogram
}

// Per-tenant metric base names. The registry has no label support, so
// the sanitized tenant is folded into the metric name by the Keyed*
// instruments — but these bases are the compile-time vocabulary
// (metrichygiene): m2td_serve_tenant_submits_total_<tenant>, etc.
const (
	tenantSubmitsBase        = "m2td_serve_tenant_submits_total"
	tenantCacheHitsBase      = "m2td_serve_tenant_cache_hits_total"
	tenantRequestSecondsBase = "m2td_serve_tenant_request_seconds"
)

func newMetrics(reg *obs.Registry, s *Server) *metrics {
	m := &metrics{
		reg:            reg,
		submits:        reg.Counter("m2td_serve_submits_total", "campaign submissions accepted for admission"),
		coalesced:      reg.Counter("m2td_serve_coalesced_total", "submissions attached to an identical in-flight campaign"),
		cacheHits:      reg.Counter("m2td_serve_cache_hits_total", "submissions served from the decomposition LRU"),
		cacheMisses:    reg.Counter("m2td_serve_cache_misses_total", "submissions that missed the decomposition LRU"),
		storeHits:      reg.Counter("m2td_serve_store_hits_total", "submissions served from the durable store"),
		quotaRejected:  reg.Counter("m2td_serve_quota_rejected_total", "submissions rejected by per-tenant quota"),
		queueRejected:  reg.Counter("m2td_serve_queue_rejected_total", "submissions rejected by the full queue"),
		jobsDone:       reg.Counter("m2td_serve_jobs_done_total", "campaigns finished successfully"),
		jobsFailed:     reg.Counter("m2td_serve_jobs_failed_total", "campaigns that failed"),
		simSetHits:     reg.Counter("m2td_serve_simset_hits_total", "finished campaigns that restored every simulation from their ensemble's catalog and executed none"),
		simsExecuted:   reg.Counter("m2td_serve_sims_executed_total", "simulations executed by finished campaigns"),
		simsRestored:   reg.Counter("m2td_serve_sims_restored_total", "simulations finished campaigns restored from a catalog instead of executing"),
		requestSeconds: reg.Histogram("m2td_serve_request_seconds", "HTTP request latency", latencyBounds),
		jobSeconds:     reg.Histogram("m2td_serve_job_seconds", "submit-to-done campaign latency", latencyBounds),

		tenantSubmits:        reg.KeyedCounter(tenantSubmitsBase, "per-tenant admitted submissions"),
		tenantCacheHits:      reg.KeyedCounter(tenantCacheHitsBase, "per-tenant cache hits"),
		tenantRequestSeconds: reg.KeyedHistogram(tenantRequestSecondsBase, "per-tenant HTTP request latency", latencyBounds),
	}
	reg.FuncGauge("m2td_serve_queue_depth", "queued campaigns", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(s.queue.Len())
	})
	reg.FuncGauge("m2td_serve_running", "running campaigns", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(s.running)
	})
	reg.FuncGauge("m2td_serve_cache_entries", "live decomposition LRU entries", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(s.cache.len())
	})
	return m
}
