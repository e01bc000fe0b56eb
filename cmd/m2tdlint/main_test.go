package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// The CLI is tested in-process through run(), against the golden
// packages under internal/lint/testdata/src (stable, deliberate
// violations) and against the repository itself (must be clean).

const goldenFloatCmp = "./internal/lint/testdata/src/floatcmp"

func TestListAnalyzers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exit code = %d, want 0 (stderr: %s)", code, stderr.String())
	}
	for _, name := range []string{
		"determinism", "ctxprop", "floatcmp", "atomicstore",
		"metrichygiene",
	} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, stdout.String())
		}
	}
}

func TestFindingsExitCodeAndText(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-analyzers", "floatcmp", goldenFloatCmp}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (findings)\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "[floatcmp]") {
		t.Errorf("text output missing [floatcmp] tag:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "finding(s)") {
		t.Errorf("stderr missing findings summary: %s", stderr.String())
	}
}

func TestJSONOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", "-analyzers", "floatcmp", goldenFloatCmp}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (findings)\nstderr: %s", code, stderr.String())
	}
	var findings []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
		t.Fatalf("-json output is not a JSON array: %v\n%s", err, stdout.String())
	}
	if len(findings) == 0 {
		t.Fatal("-json produced an empty findings array for the golden package")
	}
	for _, f := range findings {
		if f.Analyzer != "floatcmp" {
			t.Errorf("finding from analyzer %q, want floatcmp only", f.Analyzer)
		}
		if f.File == "" || f.Line == 0 || f.Message == "" {
			t.Errorf("incomplete finding: %+v", f)
		}
	}
}

func TestJSONCleanIsEmptyArray(t *testing.T) {
	var stdout, stderr bytes.Buffer
	// The ctxprop golden package is clean under the atomicstore analyzer.
	code := run([]string{"-json", "-analyzers", "atomicstore", "./internal/lint/testdata/src/ctxprop"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0 (clean)\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if got := strings.TrimSpace(stdout.String()); got != "[]" {
		t.Errorf("clean -json output = %q, want \"[]\"", got)
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-analyzers", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code = %d, want 2 (usage error)", code)
	}
	if !strings.Contains(stderr.String(), "unknown analyzer") {
		t.Errorf("stderr missing unknown-analyzer message: %s", stderr.String())
	}
}

// TestRepoCleanViaCLI mirrors the CI invocation: the whole module under
// the full suite must exit 0.
func TestRepoCleanViaCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping whole-module lint in -short mode")
	}
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 0 {
		t.Fatalf("m2tdlint ./... exit code = %d, want 0\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
}
