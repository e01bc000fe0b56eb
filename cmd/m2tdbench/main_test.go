package main

import (
	"context"
	"encoding/csv"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	m2td "repro"
	"repro/internal/eval"
)

func TestInts(t *testing.T) {
	if got := ints(""); got != nil {
		t.Fatalf("ints(\"\") = %v, want nil", got)
	}
	if got := ints("1,2, 3"); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Fatalf("ints = %v", got)
	}
	if got := ints("42"); !reflect.DeepEqual(got, []int{42}) {
		t.Fatalf("ints = %v", got)
	}
}

func TestFirstInt(t *testing.T) {
	if got := firstInt(""); got != 0 {
		t.Fatalf("firstInt(\"\") = %d", got)
	}
	if got := firstInt("7,8"); got != 7 {
		t.Fatalf("firstInt = %d", got)
	}
}

func TestRunRejectsUnknownTable(t *testing.T) {
	// "sketch" is a table that was removed.
	for _, name := range []string{"99", "sketch"} {
		err := runTables(context.Background(), io.Discard, []string{name}, eval.Config{}, sweeps{}, "")
		if err == nil || !strings.Contains(err.Error(), "unknown table") {
			t.Fatalf("table %q: want an unknown-table error, got %v", name, err)
		}
		// The error lists the registry, the same names the -table help prints.
		for _, tb := range tables {
			if !strings.Contains(err.Error(), tb.name) {
				t.Fatalf("unknown-table error %q does not name table %s", err, tb.name)
			}
		}
	}
}

// TestRegistryCoversEvalExperiments: every comparison experiment eval
// registers is a -table name (TestRunAllTablesTinyScale holds the converse:
// a comparison entry eval does not know fails to run).
func TestRegistryCoversEvalExperiments(t *testing.T) {
	names := map[string]bool{}
	for _, tb := range tables {
		names[tb.name] = true
	}
	for _, exp := range eval.Experiments(eval.Config{}, nil, nil) {
		if !names[exp.Name] {
			t.Errorf("eval experiment %q is not a -table name", exp.Name)
		}
	}
}

// tinyBase is a fast experiment configuration for CLI tests.
func tinyBase() eval.Config {
	cfg := eval.DefaultConfig("double-pendulum")
	cfg.Res = 5
	cfg.TimeSamples = 4
	cfg.Rank = 2
	return cfg
}

var tinySweeps = sweeps{res: []int{5}, ranks: []int{2}, workers: []int{1, 2}}

func TestRunAllTablesTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI table sweep")
	}
	for _, tb := range tables {
		var b strings.Builder
		if err := runTables(context.Background(), &b, []string{tb.name}, tinyBase(), tinySweeps, ""); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.String(), "[table "+tb.name+" regenerated in ") {
			t.Fatalf("table %s: no footer in output:\n%s", tb.name, b.String())
		}
	}
}

func TestRunTable2WithCSVExport(t *testing.T) {
	for _, names := range [][]string{{"2"}, {"2", "5"}} {
		csvPath := filepath.Join(t.TempDir(), "out.csv")
		var b strings.Builder
		if err := runTables(context.Background(), &b, names, tinyBase(), tinySweeps, csvPath); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(csvPath)
		if err != nil {
			t.Fatal(err)
		}
		records, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		// One header however many tables were written, then the rows of
		// every table asked for, each led by its table's name.
		exported := map[string]int{}
		for i, rec := range records {
			if (rec[0] == "table") != (i == 0) {
				t.Fatalf("-table %v: header on line %d: %v", names, i+1, rec)
			}
			if i > 0 {
				exported[rec[0]]++
			}
		}
		if !strings.Contains(strings.Join(records[1], ","), "M2TD-AVG") {
			t.Fatalf("-table %v: CSV export missing scheme rows", names)
		}
		for _, name := range names {
			if exported[name] == 0 {
				t.Fatalf("-table %v: no rows of table %s among %v", names, name, exported)
			}
		}
	}
}

func TestRunSeedsHelper(t *testing.T) {
	if err := runSeeds(context.Background(), tinyBase(), 2); err != nil {
		t.Fatal(err)
	}
}

// TestRunPipelineHeader: -run's header names the resolution and rank the
// run used — the defaults when -res and -rank are unset, the rank clipped
// to the mode sizes — not the flags' zero values.
func TestRunPipelineHeader(t *testing.T) {
	for _, c := range []struct {
		cfg  m2td.Config
		want string
	}{
		{m2td.Config{SkipAccuracy: true}, "res=12 rank=4 "},
		{m2td.Config{Resolution: 5, Rank: 9, SkipAccuracy: true}, "res=5 rank=5 "},
	} {
		var b strings.Builder
		if err := runPipeline(context.Background(), &b, c.cfg, 0, ""); err != nil {
			t.Fatal(err)
		}
		header, _, _ := strings.Cut(b.String(), "\n")
		if !strings.Contains(header, c.want) {
			t.Errorf("Resolution %d, Rank %d: header %q, want %q", c.cfg.Resolution, c.cfg.Rank, header, c.want)
		}
	}
}
