package api

import (
	"context"
	"encoding/json"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestErrorEnvelopeRoundTrip(t *testing.T) {
	in := &Error{Code: CodeQuotaExceeded, Message: "tenant a at quota"}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Error
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Code != CodeQuotaExceeded || out.Message != in.Message {
		t.Fatalf("round trip = %+v", out)
	}
	if out.Error() == "" {
		t.Fatal("empty Error() text")
	}
}

// TestErrorCodeStatusMapping pins the full code→status table and proves
// every code round-trips through the JSON envelope onto its mapped status.
// TestWireContractSource holds statusOf to every ErrorCode constant, so a
// new code cannot ship without a row there and one here.
func TestErrorCodeStatusMapping(t *testing.T) {
	want := map[ErrorCode]int{
		CodeInvalidRequest: http.StatusBadRequest,
		CodeNotFound:       http.StatusNotFound,
		CodeQuotaExceeded:  http.StatusTooManyRequests,
		CodeQueueFull:      http.StatusServiceUnavailable,
		CodeShuttingDown:   http.StatusServiceUnavailable,
		CodeJobFailed:      http.StatusInternalServerError,
		CodeNotDone:        http.StatusConflict,
		CodeInternal:       http.StatusInternalServerError,
	}
	if len(want) != len(statusOf) {
		t.Fatalf("golden table covers %d codes, statusOf maps %d", len(want), len(statusOf))
	}
	for code, wantStatus := range want {
		if got := HTTPStatus(code); got != wantStatus {
			t.Errorf("HTTPStatus(%s) = %d, want %d", code, got, wantStatus)
		}

		// Round-trip the code through the wire envelope and re-map: the
		// status must survive serialization, not just the in-process value.
		data, err := json.Marshal(&Error{Code: code, Message: "x"})
		if err != nil {
			t.Fatalf("marshal %s: %v", code, err)
		}
		var out Error
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("unmarshal %s: %v", code, err)
		}
		if out.Code != code || HTTPStatus(out.Code) != wantStatus {
			t.Errorf("round trip of %s: code=%s status=%d", code, out.Code, HTTPStatus(out.Code))
		}
	}
	// Version skew: a code outside the vocabulary degrades to 500, never 0.
	if got := HTTPStatus(ErrorCode("from_the_future")); got != http.StatusInternalServerError {
		t.Errorf("unknown code maps to %d, want 500", got)
	}
}

// wireViolations reads the wire contract off the package source: in every
// struct with a json-tagged field (a wire struct), each exported field
// needs a json tag, so a Go rename is never a silent wire rename, and no
// field may be any/interface{}, an unreviewable schema; and every
// ErrorCode constant needs a row in statusOf.
func wireViolations(files []*ast.File) []string {
	var out []string
	codes := map[string]bool{}
	rows := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok || !slices.ContainsFunc(st.Fields.List, func(f *ast.Field) bool { return jsonTag(f) != "" }) {
					return true
				}
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						if name.IsExported() && jsonTag(field) == "" {
							out = append(out, n.Name.Name+"."+name.Name+" has no json tag")
						}
						if isEmptyInterface(field.Type) {
							out = append(out, n.Name.Name+"."+name.Name+" is any/interface{} on the wire")
						}
					}
				}
			case *ast.ValueSpec:
				if id, ok := n.Type.(*ast.Ident); ok && id.Name == "ErrorCode" {
					for _, name := range n.Names {
						codes[name.Name] = true
					}
				}
				for i, name := range n.Names {
					if name.Name != "statusOf" || i >= len(n.Values) {
						continue
					}
					if lit, ok := n.Values[i].(*ast.CompositeLit); ok {
						for _, elt := range lit.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								if key, ok := kv.Key.(*ast.Ident); ok {
									rows[key.Name] = true
								}
							}
						}
					}
				}
			}
			return true
		})
	}
	for code := range codes {
		if !rows[code] {
			out = append(out, "ErrorCode "+code+" has no row in statusOf")
		}
	}
	sort.Strings(out)
	return out
}

func jsonTag(f *ast.Field) string {
	if f.Tag == nil {
		return ""
	}
	tag, _ := strconv.Unquote(f.Tag.Value)
	return reflect.StructTag(tag).Get("json")
}

func isEmptyInterface(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name == "any"
	case *ast.InterfaceType:
		return len(e.Methods.List) == 0
	}
	return false
}

func parseSources(t *testing.T, srcs map[string]string) []*ast.File {
	t.Helper()
	fset := token.NewFileSet()
	var files []*ast.File
	for name, src := range srcs {
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// TestWireContractSource holds the package's own source to the wire rules.
func TestWireContractSource(t *testing.T) {
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	srcs := map[string]string{}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		srcs[name] = string(b)
	}
	if len(srcs) == 0 {
		t.Fatal("no package sources found")
	}
	for _, v := range wireViolations(parseSources(t, srcs)) {
		t.Error(v)
	}
}

// TestWireViolationsFire proves each rule fires, so a clean package means
// something.
func TestWireViolationsFire(t *testing.T) {
	got := wireViolations(parseSources(t, map[string]string{"bad.go": `package api
type ErrorCode string
const (
	CodeA ErrorCode = "a"
	CodeB ErrorCode = "b"
)
var statusOf = map[ErrorCode]int{CodeA: 400}
type Wire struct {
	ID      string ` + "`json:\"id\"`" + `
	Name    string
	Payload any ` + "`json:\"payload\"`" + `
	Extra   interface{} ` + "`json:\"extra\"`" + `
	hidden  int
}
type Plain struct{ Name string }
`}))
	want := []string{
		"ErrorCode CodeB has no row in statusOf",
		"Wire.Extra is any/interface{} on the wire",
		"Wire.Name has no json tag",
		"Wire.Payload is any/interface{} on the wire",
	}
	if !slices.Equal(got, want) {
		t.Errorf("violations = %q\nwant %q", got, want)
	}
}

func TestJobStateTerminal(t *testing.T) {
	for state, want := range map[JobState]bool{
		StateQueued:  false,
		StateRunning: false,
		StateDone:    true,
		StateFailed:  true,
	} {
		if state.Terminal() != want {
			t.Errorf("%s.Terminal() = %v, want %v", state, state.Terminal(), want)
		}
	}
}

// TestClientTypedError verifies non-2xx responses surface as *Error with
// the machine-readable code intact.
func TestClientTypedError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(Error{Code: CodeQuotaExceeded, Message: "no"})
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	_, err := c.Submit(context.Background(), SubmitRequest{})
	var apiErr *Error
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %v (%T) is not *api.Error", err, err)
	}
	if apiErr.Code != CodeQuotaExceeded {
		t.Fatalf("code = %s", apiErr.Code)
	}
}

// TestClientNonEnvelopeError verifies a non-JSON error body still comes
// back as a typed *Error (internal) rather than a decode failure.
func TestClientNonEnvelopeError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "plain text panic page", http.StatusBadGateway)
	}))
	defer srv.Close()

	_, err := NewClient(srv.URL).Stats(context.Background())
	var apiErr *Error
	if !errors.As(err, &apiErr) {
		t.Fatalf("error %v (%T) is not *api.Error", err, err)
	}
	if apiErr.Code != CodeInternal {
		t.Fatalf("code = %s", apiErr.Code)
	}
}

// TestClientRoutesAndHeaders verifies the client hits the versioned paths
// with the tenant header and decodes typed responses.
func TestClientRoutesAndHeaders(t *testing.T) {
	var gotPath, gotTenant string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotPath = r.Method + " " + r.URL.Path
		gotTenant = r.Header.Get(TenantHeader)
		switch {
		case r.URL.Path == PathPrefix+"campaigns":
			json.NewEncoder(w).Encode(SubmitResponse{JobID: "j1", State: StateQueued, Fingerprint: "fp"})
		case r.URL.Path == PathPrefix+"jobs/j1/result":
			json.NewEncoder(w).Encode(ResultResponse{Job: JobStatus{ID: "j1", State: StateDone}})
		case r.URL.Path == PathPrefix+"jobs/j1/predict":
			var req PredictRequest
			json.NewDecoder(r.Body).Decode(&req)
			json.NewEncoder(w).Encode(PredictResponse{JobID: "j1", Values: req.Params})
		default:
			json.NewEncoder(w).Encode(JobStatus{ID: "j1", State: StateDone})
		}
	}))
	defer srv.Close()

	c := NewClient(srv.URL + "/") // trailing slash must not double up
	c.Tenant = "team-a"
	ctx := context.Background()

	sub, err := c.Submit(ctx, SubmitRequest{Campaign: CampaignSpec{System: "lorenz"}})
	if err != nil {
		t.Fatal(err)
	}
	if sub.JobID != "j1" || gotPath != "POST "+PathPrefix+"campaigns" || gotTenant != "team-a" {
		t.Fatalf("submit: %+v path=%q tenant=%q", sub, gotPath, gotTenant)
	}

	if _, err := c.Status(ctx, "j1", 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if gotPath != "GET "+PathPrefix+"jobs/j1" {
		t.Fatalf("status path = %q", gotPath)
	}

	res, err := c.Result(ctx, "j1")
	if err != nil || res.Job.ID != "j1" {
		t.Fatalf("result: %+v, %v", res, err)
	}

	pred, err := c.Predict(ctx, "j1", []float64{1, 2})
	if err != nil || len(pred.Values) != 2 {
		t.Fatalf("predict: %+v, %v", pred, err)
	}

	st, err := c.Wait(ctx, "j1", time.Second)
	if err != nil || !st.State.Terminal() {
		t.Fatalf("wait: %+v, %v", st, err)
	}
}

// TestStatsResponseWireNames pins the stats body's field names: additions
// are fine (sim_set_hits arrived after v1 shipped and an older server's
// body, which lacks it, decodes to 0), renames and removals are not.
func TestStatsResponseWireNames(t *testing.T) {
	data, err := json.Marshal(StatsResponse{})
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"submits", "coalesced", "cache_hits", "cache_misses", "store_hits",
		"quota_rejected", "queue_rejected", "jobs_done", "jobs_failed",
		"queue_depth", "running", "draining", "sim_set_hits",
	}
	if len(got) != len(want) {
		t.Fatalf("stats body has %d fields, the table %d: %s", len(got), len(want), data)
	}
	for _, name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("stats body lost field %q: %s", name, data)
		}
	}
	var old StatsResponse
	if err := json.Unmarshal([]byte(`{"submits":3,"jobs_done":2}`), &old); err != nil || old.SimSetHits != 0 || old.JobsDone != 2 {
		t.Fatalf("pre-sim_set_hits body: %+v, %v", old, err)
	}
}
