// Package api is the versioned, typed wire contract of the tensorstore
// campaign server (internal/serve): every client-visible payload —
// campaign submission, job status, decomposition results, predictions,
// server statistics, and the error envelope — is a struct in this
// package, shared verbatim by the server, the api.Client and
// cmd/tensorstore. There are no map[string]interface{} payloads anywhere:
// a field that is not in this package is not part of the API.
//
// Versioning policy: every route lives under the PathPrefix ("/v1/").
// Additive changes (new optional request fields, new response fields) stay
// in v1; any change that would alter the meaning of an existing field or
// remove one gets a new prefix, and v1 keeps serving with its old
// semantics until retired. The JSON encoding is the contract — field
// names are frozen by their json tags, and unknown fields are ignored by
// both sides so old clients keep working against newer servers.
//
// The package is deliberately dependency-free (stdlib only): importing it
// pulls in the wire types and nothing of the engine.
package api

import (
	"fmt"
	"net/http"
)

// Version is the served API version.
const Version = "v1"

// PathPrefix is the route prefix every endpoint lives under.
const PathPrefix = "/" + Version + "/"

// Route patterns (http.ServeMux method+wildcard syntax, Go ≥ 1.22).
const (
	RouteSubmit  = "POST " + PathPrefix + "campaigns"
	RouteJobs    = "GET " + PathPrefix + "jobs"
	RouteStatus  = "GET " + PathPrefix + "jobs/{id}"
	RouteResult  = "GET " + PathPrefix + "jobs/{id}/result"
	RoutePredict = "POST " + PathPrefix + "jobs/{id}/predict"
	RouteStats   = "GET " + PathPrefix + "stats"
	RouteHealth  = "GET " + PathPrefix + "healthz"
)

// TenantHeader optionally carries the tenant identity; the
// SubmitRequest.Tenant field wins when both are present.
const TenantHeader = "X-M2TD-Tenant"

// ErrorCode is a machine-readable error class. Clients dispatch on the
// code, never on message text.
type ErrorCode string

// The error codes the server emits.
const (
	// CodeInvalidRequest: the request body or parameters failed
	// validation (malformed JSON, unknown system/method, bad ranges).
	CodeInvalidRequest ErrorCode = "invalid_request"
	// CodeNotFound: the named job (or its result) does not exist.
	CodeNotFound ErrorCode = "not_found"
	// CodeQuotaExceeded: the tenant already has its quota of queued or
	// running campaigns; retry after one finishes.
	CodeQuotaExceeded ErrorCode = "quota_exceeded"
	// CodeQueueFull: the server-wide submission queue is at capacity.
	CodeQueueFull ErrorCode = "queue_full"
	// CodeShuttingDown: the server is draining and accepts no new work.
	CodeShuttingDown ErrorCode = "shutting_down"
	// CodeJobFailed: the campaign ran and failed; JobStatus.Error carries
	// the cause.
	CodeJobFailed ErrorCode = "job_failed"
	// CodeNotDone: the job exists but has not finished, so it has no
	// result yet.
	CodeNotDone ErrorCode = "not_done"
	// CodeInternal: an unexpected server-side failure.
	CodeInternal ErrorCode = "internal"
)

// statusOf is the code→status table: the single source of truth shared by
// the server's error writer and the client's expectations. Every ErrorCode
// constant has a row (a test parses this file to hold it to that). Both
// capacity conditions (queue_full, shutting_down) map to 503: in each case
// the request is well-formed and retryable once the server's state changes.
var statusOf = map[ErrorCode]int{
	CodeInvalidRequest: http.StatusBadRequest,
	CodeNotFound:       http.StatusNotFound,
	CodeQuotaExceeded:  http.StatusTooManyRequests,
	CodeQueueFull:      http.StatusServiceUnavailable,
	CodeShuttingDown:   http.StatusServiceUnavailable,
	CodeJobFailed:      http.StatusInternalServerError,
	CodeNotDone:        http.StatusConflict,
	CodeInternal:       http.StatusInternalServerError,
}

// HTTPStatus maps a code to its HTTP status. A code outside the vocabulary
// (possible only across version skew, ErrorCode being an open string type)
// degrades to 500.
func HTTPStatus(code ErrorCode) int {
	if status, ok := statusOf[code]; ok {
		return status
	}
	return http.StatusInternalServerError
}

// Error is the typed error envelope. Every non-2xx response body is
// exactly this struct.
type Error struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
}

// Error implements the error interface, so an *Error returned by the
// client can be matched with errors.As and dispatched on Code.
func (e *Error) Error() string {
	return fmt.Sprintf("api: %s: %s", e.Code, e.Message)
}

// DistSpec requests the multi-process D-M2TD engine for a campaign
// (m2td.Config.Distributed). Workers is the worker-process count; Shards
// fixes the determinism unit (0 defaults to Workers). The server may also
// dispatch large campaigns onto the distributed engine on its own — see
// JobStatus.Distributed for what actually ran.
type DistSpec struct {
	Workers int `json:"workers"`
	Shards  int `json:"shards,omitempty"`
}

// CampaignSpec describes one M2TD campaign: the ensemble to simulate and
// the decomposition to serve. Zero fields take the engine defaults
// (system double-pendulum, resolution 12, rank 4, method select, pivot t,
// full densities, seed 1).
type CampaignSpec struct {
	System             string    `json:"system,omitempty"`
	Resolution         int       `json:"resolution,omitempty"`
	TimeSamples        int       `json:"time_samples,omitempty"`
	Rank               int       `json:"rank,omitempty"`
	Method             string    `json:"method,omitempty"`
	Pivot              string    `json:"pivot,omitempty"`
	PivotDensity       float64   `json:"pivot_density,omitempty"`
	SubEnsembleDensity float64   `json:"sub_density,omitempty"`
	ZeroJoin           bool      `json:"zero_join,omitempty"`
	Seed               int64     `json:"seed,omitempty"`
	Distributed        *DistSpec `json:"distributed,omitempty"`
	// SkipAccuracy skips ground-truth accuracy evaluation (the default
	// posture for serving; the full metric simulates the entire space).
	SkipAccuracy bool `json:"skip_accuracy,omitempty"`
	// AccuracySampleSims > 0 estimates accuracy from that many sampled
	// ground-truth fibers instead of the full tensor.
	AccuracySampleSims int `json:"accuracy_sample_sims,omitempty"`
	// TimeoutMS bounds the campaign's wall clock; 0 uses the server
	// default. On expiry the campaign checkpoints completed simulations
	// and fails with CodeJobFailed; resubmitting the same spec resumes
	// from the checkpoint.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SubmitRequest submits one campaign.
type SubmitRequest struct {
	// Tenant identifies the submitting tenant for quota accounting and
	// per-tenant metrics ("" means "anonymous").
	Tenant string `json:"tenant,omitempty"`
	// Priority orders the campaign queue: higher runs first; equal
	// priorities run in submission order.
	Priority int `json:"priority,omitempty"`
	// Campaign is the work.
	Campaign CampaignSpec `json:"campaign"`
}

// JobState is the lifecycle state of a submitted campaign.
type JobState string

// The job lifecycle: queued → running → done | failed.
const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool { return s == StateDone || s == StateFailed }

// SubmitResponse acknowledges a submission. Coalesced submissions and
// cache hits return immediately with the shared job's identity.
type SubmitResponse struct {
	// JobID names the job for the status/result/predict endpoints.
	JobID string `json:"job_id"`
	// State is the job's state at submit time (StateDone for cache and
	// store hits).
	State JobState `json:"state"`
	// Fingerprint is the campaign's config fingerprint — the coalescing
	// and cache key.
	Fingerprint string `json:"fingerprint"`
	// Coalesced reports that an identical campaign was already in flight
	// and this submission attached to it instead of enqueueing new work.
	Coalesced bool `json:"coalesced,omitempty"`
	// CacheHit reports the result was served from the LRU decomposition
	// cache; StoreHit reports it was reloaded from the durable store.
	CacheHit bool `json:"cache_hit,omitempty"`
	StoreHit bool `json:"store_hit,omitempty"`
}

// JobStatus describes a job's lifecycle state.
type JobStatus struct {
	ID     string   `json:"id"`
	Tenant string   `json:"tenant"`
	State  JobState `json:"state"`
	// Fingerprint is the campaign's coalescing/cache key.
	Fingerprint string `json:"fingerprint"`
	// QueuePosition is the 1-based position among queued jobs (0 once
	// running or terminal).
	QueuePosition int `json:"queue_position,omitempty"`
	// Waiters counts submissions coalesced onto this job (1 = just the
	// original submitter).
	Waiters int `json:"waiters,omitempty"`
	// Distributed reports the campaign ran (or will run) on the
	// multi-process engine.
	Distributed bool `json:"distributed,omitempty"`
	// SubmittedAtMS/StartedAtMS/FinishedAtMS are Unix milliseconds (0 =
	// not yet reached).
	SubmittedAtMS int64 `json:"submitted_at_ms"`
	StartedAtMS   int64 `json:"started_at_ms,omitempty"`
	FinishedAtMS  int64 `json:"finished_at_ms,omitempty"`
	// Error is set when State is StateFailed.
	Error *Error `json:"error,omitempty"`
}

// DecompositionInfo summarises a finished campaign's decomposition.
type DecompositionInfo struct {
	// Accuracy is the paper's 1 − ‖X̃−Y‖F/‖Y‖F metric; NaN is encoded as
	// the AccuracyValid=false pair since JSON has no NaN.
	Accuracy      float64 `json:"accuracy,omitempty"`
	AccuracyValid bool    `json:"accuracy_valid"`
	NumSims       int     `json:"num_sims"`
	// JoinCells is the join tensor's size: counted when the campaign built
	// one, otherwise the paper's density formula (the default campaign is
	// join-free).
	JoinCells int   `json:"join_cells"`
	CoreShape []int `json:"core_shape"`
	Ranks     []int `json:"ranks"`
	// SimMS and DecompMS are the stage wall-clock times in milliseconds.
	SimMS    int64 `json:"sim_ms"`
	DecompMS int64 `json:"decomp_ms"`
	// RestoredSims counts simulations restored from the ensemble's catalog
	// instead of executed: NumSims when an earlier campaign over the same
	// ensemble left it complete, a partial count after a killed one.
	RestoredSims int `json:"restored_sims,omitempty"`
	// Distributed reports the multi-process engine ran the campaign.
	Distributed bool `json:"distributed,omitempty"`
	// StoreName is the durable store object holding the decomposition
	// (load it with tensorstore info/dump or store.LoadDecomposition).
	StoreName string `json:"store_name,omitempty"`
}

// ResultResponse is the terminal-state response of the result endpoint.
type ResultResponse struct {
	Job           JobStatus          `json:"job"`
	Decomposition *DecompositionInfo `json:"decomposition,omitempty"`
}

// JobsResponse lists jobs (most recent first).
type JobsResponse struct {
	Jobs []JobStatus `json:"jobs"`
}

// PredictRequest asks a finished campaign's decomposition for the
// predicted per-timestamp cell values at physical parameter values
// (between grid points included; out-of-range values are clamped).
type PredictRequest struct {
	Params []float64 `json:"params"`
}

// PredictResponse carries the predicted time fiber.
type PredictResponse struct {
	JobID  string    `json:"job_id"`
	Values []float64 `json:"values"`
}

// StatsResponse is a typed snapshot of the server's serving counters —
// the same values the Prometheus endpoint exposes, for clients
// that want exact numbers without text parsing.
type StatsResponse struct {
	Submits       int64 `json:"submits"`
	Coalesced     int64 `json:"coalesced"`
	CacheHits     int64 `json:"cache_hits"`
	CacheMisses   int64 `json:"cache_misses"`
	StoreHits     int64 `json:"store_hits"`
	QuotaRejected int64 `json:"quota_rejected"`
	QueueRejected int64 `json:"queue_rejected"`
	JobsDone      int64 `json:"jobs_done"`
	JobsFailed    int64 `json:"jobs_failed"`
	QueueDepth    int64 `json:"queue_depth"`
	Running       int64 `json:"running"`
	Draining      bool  `json:"draining"`
	// SimSetHits counts finished campaigns that restored every simulation
	// from their ensemble's catalog and executed none: same simulations,
	// new decomposition.
	SimSetHits int64 `json:"sim_set_hits"`
}

// HealthResponse is the health endpoint's body.
type HealthResponse struct {
	OK       bool   `json:"ok"`
	Version  string `json:"version"`
	Draining bool   `json:"draining,omitempty"`
}
