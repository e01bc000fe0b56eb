package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

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
	if err := run(context.Background(), io.Discard, "99", eval.Config{}, "", "", "", ""); err == nil {
		t.Fatal("unknown table accepted")
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

func TestRunAllTablesTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI table sweep")
	}
	base := tinyBase()
	for _, tb := range []string{"1", "3", "4", "5", "6", "7", "8", "fig6", "noise", "ranks", "extended", "pivotselect", "sketch"} {
		var b strings.Builder
		if err := run(context.Background(), &b, tb, base, "5", "2", "1,2", ""); err != nil {
			t.Fatalf("table %s: %v", tb, err)
		}
		if b.Len() == 0 {
			t.Fatalf("table %s produced no output", tb)
		}
	}
}

func TestRunTable2WithCSVExport(t *testing.T) {
	base := tinyBase()
	csvPath := filepath.Join(t.TempDir(), "out.csv")
	var b strings.Builder
	if err := run(context.Background(), &b, "2", base, "5", "2", "", csvPath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "M2TD-SELECT") {
		t.Fatal("CSV export missing scheme rows")
	}
}

func TestRunSketchTableWithCSVExport(t *testing.T) {
	base := tinyBase()
	csvPath := filepath.Join(t.TempDir(), "sketch.csv")
	var b strings.Builder
	if err := run(context.Background(), &b, "sketch", base, "5", "2", "", csvPath); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "SKETCH SWEEP") {
		t.Fatal("sketch table missing its header")
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "keep_frac") {
		t.Fatal("sketch CSV export missing header row")
	}
}

func TestRunSeedsHelper(t *testing.T) {
	if err := runSeeds(context.Background(), tinyBase(), 2); err != nil {
		t.Fatal(err)
	}
}
