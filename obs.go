package m2td

import (
	"fmt"
	"io"

	"repro/internal/obs"
)

// Pipeline-level instrumentation and the public observability surface of
// the facade: Prometheus/expvar/pprof serving and JSONL trace serialization
// (replayable by cmd/tracecat).

var runsTotal = obs.Default.Counter("m2td_runs_total",
	"Completed pipeline runs (Run/RunCtx and Baseline/BaselineCtx).")

// ServeMetrics starts an HTTP listener on addr (":0" picks a free port;
// the returned server's Addr reports the bound address) exposing the
// process-wide metrics registry as Prometheus text on /metrics, expvar on
// /debug/vars, and net/http/pprof under /debug/pprof/. Close the returned
// server to stop it.
func ServeMetrics(addr string) (*obs.Server, error) {
	return obs.ServeMetrics(addr, obs.Default)
}

// WriteTrace serializes a finished trace as JSONL events (one meta line,
// one line per span in deterministic pre-order, and a final snapshot of
// the process-wide metrics registry). The format is read back by
// obs.ReadJSONL and summarized by cmd/tracecat.
func WriteTrace(w io.Writer, t *obs.Trace) error {
	root := t.Root()
	if root == nil {
		return fmt.Errorf("m2td: WriteTrace on nil trace")
	}
	return obs.WriteJSONL(w, root.Data(), obs.Default.Snapshot())
}
