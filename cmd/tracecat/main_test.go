package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs"
)

// trace builds a small two-level trace and serializes it as JSONL.
func traceJSONL(t *testing.T, snapshot map[string]any) *bytes.Buffer {
	t.Helper()
	tr := obs.New("run")
	root := tr.Root()
	p := root.Start("partition")
	p.Add("sims", 64)
	p.SetGauge("allocs", 42)
	p.Finish()
	tr.Finish()
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, root.Data(), snapshot); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestSummarize(t *testing.T) {
	in := traceJSONL(t, map[string]any{"m2td_runs_total": 1})
	var out bytes.Buffer
	if err := summarize(in, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"run",
		"partition",
		"sims=64",
		"~allocs=42",
		"2 spans",
		"metrics snapshot:",
		"m2td_runs_total",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("summary missing %q:\n%s", want, got)
		}
	}
	// The child is indented under the root.
	if !strings.Contains(got, "  partition") {
		t.Errorf("child span not indented:\n%s", got)
	}
}

func TestSummarizeNoSnapshot(t *testing.T) {
	in := traceJSONL(t, nil)
	var out bytes.Buffer
	if err := summarize(in, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "metrics snapshot") {
		t.Errorf("snapshot section rendered without a snapshot:\n%s", out.String())
	}
}

// TestSummarizeRunning: a span written before its Finish is marked, and
// the footer counts it; a finished trace's footer carries no count.
func TestSummarizeRunning(t *testing.T) {
	tr := obs.New("run")
	tr.Root().Start("partition").Finish()
	tr.Root().Start("decompose")
	var in bytes.Buffer
	if err := obs.WriteJSONL(&in, tr.Root().Data(), nil); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := summarize(&in, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"decompose", "(running)", "3 spans (2 running)"} {
		if !strings.Contains(got, want) {
			t.Errorf("summary missing %q:\n%s", want, got)
		}
	}
	for _, line := range strings.Split(got, "\n") {
		if strings.Contains(line, "partition") && strings.Contains(line, "(running)") {
			t.Errorf("finished span marked running: %q", line)
		}
	}

	out.Reset()
	if err := summarize(traceJSONL(t, nil), &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "running") {
		t.Errorf("finished trace summarized with running spans:\n%s", out.String())
	}
}

func TestSummarizeRejectsGarbage(t *testing.T) {
	if err := summarize(strings.NewReader("definitely not jsonl\n"), &bytes.Buffer{}); err == nil {
		t.Error("garbage input accepted")
	}
}
