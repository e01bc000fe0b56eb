package main

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/dynsys"
	"repro/internal/faults"
)

func TestDumpTrajectoryCSV(t *testing.T) {
	sys := dynsys.NewLorenz()
	var b strings.Builder
	if err := dumpTrajectory(context.Background(), &b, sys, nil, "", 3, "csv"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d lines, want header + 3 samples", len(lines))
	}
	if lines[0] != "sample,state0,state1,state2" {
		t.Fatalf("header = %q", lines[0])
	}
}

func TestDumpTrajectoryJSON(t *testing.T) {
	sys := dynsys.NewSEIR()
	var b strings.Builder
	if err := dumpTrajectory(context.Background(), &b, sys, nil, "0.3,0.2,0.1,0.01", 2, "json"); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]interface{}
	if err := json.Unmarshal([]byte(b.String()), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if decoded["system"] != "seir" {
		t.Fatalf("system = %v", decoded["system"])
	}
	traj, ok := decoded["trajectory"].([]interface{})
	if !ok || len(traj) != 2 {
		t.Fatalf("trajectory = %v", decoded["trajectory"])
	}
}

// TestDumpTrajectoryUnderFaults: an injected transient failure is retried
// before the simulation runs, so the faulted trajectory is byte-equal to
// the clean one, after two attempts.
func TestDumpTrajectoryUnderFaults(t *testing.T) {
	sys := dynsys.NewLorenz()
	var clean, faulted strings.Builder
	if err := dumpTrajectory(context.Background(), &clean, sys, nil, "", 4, "csv"); err != nil {
		t.Fatal(err)
	}
	inj := faults.New(faults.Config{Seed: 1, TransientRate: 1})
	if err := dumpTrajectory(context.Background(), &faulted, sys, inj, "", 4, "csv"); err != nil {
		t.Fatal(err)
	}
	if faulted.String() != clean.String() {
		t.Fatalf("faulted trajectory differs:\n%s\nclean:\n%s", faulted.String(), clean.String())
	}
	if s := inj.Stats(); s.Attempts != 2 || s.TransientFailures != 1 || s.TransientSims != 1 {
		t.Fatalf("injector stats %+v, want 2 attempts, 1 transient failure, 1 sim", s)
	}
}

func TestDumpTrajectoryErrors(t *testing.T) {
	sys := dynsys.NewLorenz()
	var b strings.Builder
	if err := dumpTrajectory(context.Background(), &b, sys, nil, "1,2", 2, "csv"); err == nil {
		t.Fatal("wrong parameter count accepted")
	}
	if err := dumpTrajectory(context.Background(), &b, sys, nil, "a,b,c,d", 2, "csv"); err == nil {
		t.Fatal("non-numeric parameters accepted")
	}
	if err := dumpTrajectory(context.Background(), &b, sys, nil, "", 2, "xml"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestDumpEnsembleCSV(t *testing.T) {
	sys := dynsys.NewDoublePendulum()
	var b strings.Builder
	if err := dumpEnsemble(context.Background(), &b, sys, nil, "grid", 16, 4, 2, 1, "csv"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	// header + 16 sims × 2 timestamps
	if len(lines) != 1+32 {
		t.Fatalf("%d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "phi1,phi2,m1,m2,t,value") {
		t.Fatalf("header = %q", lines[0])
	}
}

func TestDumpEnsembleJSON(t *testing.T) {
	sys := dynsys.NewLorenz()
	var b strings.Builder
	if err := dumpEnsemble(context.Background(), &b, sys, nil, "random", 5, 4, 2, 1, "json"); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]interface{}
	if err := json.Unmarshal([]byte(b.String()), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if decoded["numSims"].(float64) != 5 {
		t.Fatalf("numSims = %v", decoded["numSims"])
	}
}

func TestDumpEnsembleErrors(t *testing.T) {
	sys := dynsys.NewLorenz()
	var b strings.Builder
	if err := dumpEnsemble(context.Background(), &b, sys, nil, "bogus", 5, 4, 2, 1, "csv"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if err := dumpEnsemble(context.Background(), &b, sys, nil, "random", 5, 4, 2, 1, "xml"); err == nil {
		t.Fatal("unknown format accepted")
	}
}
