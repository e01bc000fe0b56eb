// Command benchjson runs the kernel-level benchmark suite and emits a
// machine-readable JSON summary (benchmark name → ns/op plus, where the
// benchmark reports allocations, allocs/op and B/op). CI uploads the file
// as a build artifact so kernel performance can be tracked across
// commits; the checked-in BENCH_7.json is one such snapshot taken at
// M2TD_BENCH_RES=16.
//
// Usage:
//
//	benchjson [-out BENCH_7.json] [-bench <regex>] [-benchtime 1x] [-pkgs ./...]
//	benchjson -diff [flags] OLD.json NEW.json
//
// In collection mode the benchmarks run in a `go test` subprocess so they
// execute exactly as `make bench` runs them; this command only parses the
// standard benchmark output lines, e.g.
//
//	BenchmarkTTMSparse-8   1694   761343 ns/op   31352 B/op   9 allocs/op
//
// In diff mode the command compares two snapshots and exits nonzero when
// NEW regresses against OLD: ns/op growth beyond -tol (per-benchmark
// overrides via -tol-bench), allocs/op growth beyond -allocs-tol, or a
// baseline benchmark missing from NEW (unless -allow-missing). -shape
// additionally asserts a worker-scaling curve in NEW is monotone
// non-increasing up to -shape-slack, and -speedup FAST:SLOW:MIN asserts
// SLOW is at least MIN times slower than FAST within NEW (the sketch
// fast-path gate — both sides of the ratio come from the same machine,
// so it holds at a tight threshold where cross-machine timings cannot).
// Exit codes: 0 pass, 1 regression or shape/speedup violation, 2
// unreadable or malformed input. This is the CI bench-regression gate.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"

	"repro/internal/benchjson"
)

// defaultBench selects the kernel benchmarks worth tracking: TTM and
// ModeGram variants, HOSVD/HOOI (plain and sketched), workspace chains,
// stitching (BenchmarkStitch also selects the D-M2TD Phase 2 task,
// BenchmarkStitchShard), transient (plan-less) core recovery, the
// simulation kernel (one simulation per system, one res-12 sub-ensemble
// campaign), the sparse store codec, and the decomposition stage on both
// routes of the in-process dispatch rule.
const defaultBench = "BenchmarkTTM|BenchmarkModeGram|BenchmarkWorkspace|BenchmarkHOSVD|BenchmarkHOOI|BenchmarkParallelHOSVD|BenchmarkParallelTTM|BenchmarkStitch|BenchmarkSketched|BenchmarkTransientCoreRecovery|BenchmarkSimCells|BenchmarkPartitionGenerate|BenchmarkStoreSparse|BenchmarkDecomposeDispatch"

// stringList is a repeatable string flag.
type stringList []string

func (s *stringList) String() string { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

// diffConfig carries the parsed diff-mode flags.
type diffConfig struct {
	tolerance    float64
	perBench     map[string]float64
	allocsTol    int64
	allowMissing bool
	shapes       []string
	shapeSlack   float64
	speedups     []string
}

func main() {
	var (
		out       = flag.String("out", "BENCH_7.json", "output JSON path (collection mode)")
		bench     = flag.String("bench", defaultBench, "benchmark selection regex passed to go test -bench")
		benchtime = flag.String("benchtime", "", "benchtime passed to go test (empty = default)")
		pkgs      = flag.String("pkgs", "./...", "package pattern to benchmark")

		diffMode     = flag.Bool("diff", false, "compare two snapshots: benchjson -diff OLD.json NEW.json")
		tol          = flag.Float64("tol", benchjson.DefaultTolerance, "allowed relative ns/op growth (diff mode)")
		allocsTol    = flag.Int64("allocs-tol", 0, "allowed absolute allocs/op growth (diff mode)")
		allowMissing = flag.Bool("allow-missing", false, "baseline benchmarks missing from NEW are notes, not failures (diff mode)")
		shapeSlack   = flag.Float64("shape-slack", 0.05, "relative slack for -shape monotonicity (diff mode)")
	)
	var tolBench, shapes, speedups stringList
	flag.Var(&tolBench, "tol-bench", "per-benchmark tolerance override NAME=FRAC; prefix keys cover sub-benchmarks (repeatable, diff mode)")
	flag.Var(&shapes, "shape", "assert NEW's GROUP/workers=N curve is monotone non-increasing (repeatable, diff mode)")
	flag.Var(&speedups, "speedup", "assert SLOW >= MIN x FAST within NEW, as FAST:SLOW:MIN (repeatable, diff mode)")
	flag.Parse()

	if *diffMode {
		cfg := diffConfig{
			tolerance:    *tol,
			perBench:     make(map[string]float64),
			allocsTol:    *allocsTol,
			allowMissing: *allowMissing,
			shapes:       shapes,
			shapeSlack:   *shapeSlack,
			speedups:     speedups,
		}
		for _, kv := range tolBench {
			name, frac, ok := strings.Cut(kv, "=")
			if !ok {
				fmt.Fprintf(os.Stderr, "benchjson: -tol-bench %q: want NAME=FRAC\n", kv)
				os.Exit(2)
			}
			v, err := strconv.ParseFloat(frac, 64)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: -tol-bench %q: %v\n", kv, err)
				os.Exit(2)
			}
			cfg.perBench[name] = v
		}
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -diff needs exactly two arguments: OLD.json NEW.json")
			os.Exit(2)
		}
		os.Exit(runDiff(cfg, flag.Arg(0), flag.Arg(1), os.Stdout, os.Stderr))
	}

	os.Exit(runCollect(*out, *bench, *benchtime, *pkgs))
}

// runDiff executes diff mode and returns the process exit code: 0 pass,
// 1 regression or shape violation, 2 unreadable or malformed input.
func runDiff(cfg diffConfig, oldPath, newPath string, stdout, stderr io.Writer) int {
	baseline, err := benchjson.LoadFile(oldPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: baseline: %v\n", err)
		return 2
	}
	current, err := benchjson.LoadFile(newPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchjson: new run: %v\n", err)
		return 2
	}

	entries := benchjson.Diff(baseline, current, benchjson.DiffOptions{
		Tolerance:       cfg.tolerance,
		PerBench:        cfg.perBench,
		AllocsTolerance: cfg.allocsTol,
		AllowMissing:    cfg.allowMissing,
	})
	for _, e := range entries {
		mark := " "
		if e.Failed {
			mark = "!"
		}
		switch e.Status {
		case benchjson.StatusMissing:
			fmt.Fprintf(stdout, "%s %-14s %s: %s\n", mark, e.Status, e.Name, e.Detail)
		case benchjson.StatusNew:
			fmt.Fprintf(stdout, "%s %-14s %s: %.0f ns/op\n", mark, e.Status, e.Name, e.NewNs)
		default:
			detail := ""
			if e.Detail != "" {
				detail = " — " + e.Detail
			}
			fmt.Fprintf(stdout, "%s %-14s %s: %.0f -> %.0f ns/op (%.2fx)%s\n",
				mark, e.Status, e.Name, e.OldNs, e.NewNs, e.Ratio, detail)
		}
	}

	failed := benchjson.AnyFailed(entries)
	for _, group := range cfg.shapes {
		for _, problem := range benchjson.CheckMonotone(current, group, cfg.shapeSlack) {
			fmt.Fprintf(stdout, "! shape          %s\n", problem)
			failed = true
		}
	}
	for _, spec := range cfg.speedups {
		for _, problem := range benchjson.CheckSpeedup(current, spec) {
			fmt.Fprintf(stdout, "! speedup        %s\n", problem)
			failed = true
		}
	}
	if failed {
		fmt.Fprintf(stderr, "benchjson: regression detected (%s vs %s)\n", newPath, oldPath)
		return 1
	}
	fmt.Fprintf(stderr, "benchjson: %d benchmarks within tolerance\n", len(entries))
	return 0
}

// runCollect executes collection mode and returns the process exit code.
func runCollect(out, bench, benchtime, pkgs string) int {
	args := []string{"test", "-run=NONE", "-bench", bench, "-benchmem"}
	if benchtime != "" {
		args = append(args, "-benchtime", benchtime)
	}
	args = append(args, pkgs)

	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = &buf
	fmt.Fprintf(os.Stderr, "benchjson: go %v\n", args)
	if err := cmd.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: go test failed: %v\n", err)
		return 1
	}
	os.Stdout.Write(buf.Bytes())

	results := benchjson.Parse(buf.String())
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines parsed")
		return 1
	}

	names := make([]string, 0, len(results))
	for name := range results {
		names = append(names, name)
	}
	sort.Strings(names)
	ordered := make(map[string]benchjson.Result, len(results))
	for _, name := range names {
		ordered[name] = results[name]
	}
	data, err := json.MarshalIndent(ordered, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 1
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(results), out)
	return 0
}
