// Command m2tdperf is the repository's one benchmark: four campaign
// workloads, each with an all-core arm and a serial arm, the end-to-end
// metrics a user of the system sees, and a traced pass that attributes
// the time to the layers by timing their public entry points from
// outside. README.md in this directory documents the metrics, the
// workloads and how to read the output; BENCHMARK.json at the repository
// root declares them to the acceptance driver.
//
//	go run ./cmd/m2tdperf -seed 7                      every workload, timed and traced
//	go run ./cmd/m2tdperf -seed 7 -repeat 10           the steadiness table
//	go run ./cmd/m2tdperf -smoke                       the harness itself, in seconds
//	go run ./cmd/m2tdperf --workload dense-join --seed 7 --seconds 20 --trace 0
//
// The last form is one run of one workload in this process — what the
// first three start, a fresh process per run — and ends with one JSON
// line: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	m2td "repro"
)

// runLimit bounds one run of one workload; the acceptance driver allows
// 180 seconds.
const runLimit = 170 * time.Second

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	traceOut string
	repeat   int
	smoke    bool
}

func main() {
	// dist-procs spawns its worker processes by re-executing this binary.
	m2td.MaybeDistWorker()

	var o options
	var trace string
	flag.StringVar(&o.workload, "workload", "", "run this one workload in this process and end with the result line (default: every workload, a fresh process each)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for campaign seeds, method order and the served-mix schedule")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "seconds of timed campaigns per run")
	flag.StringVar(&trace, "trace", "0", "with -workload: 0 runs the timed arms (end-to-end metrics), 1 the traced pass (per-layer metrics)")
	flag.StringVar(&o.traceOut, "trace-out", "", "append the traced pass's spans to this file as JSON lines")
	flag.IntVar(&o.repeat, "repeat", 0, "run the timed arms of every workload this many times, on consecutive seeds, and print each end-to-end metric's spread against its bound")
	flag.BoolVar(&o.smoke, "smoke", false, "two campaigns per arm and no time slices: exercises the harness, measures nothing")
	flag.Parse()
	switch trace {
	case "0":
	case "1":
		o.trace = true
	default:
		fmt.Fprintln(os.Stderr, "m2tdperf: -trace takes 0 or 1; spans go to -trace-out")
		os.Exit(2)
	}
	if flag.NArg() > 0 || o.seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch {
	case o.workload != "":
		err = runOne(ctx, o)
	case o.repeat > 0:
		err = runRepeat(ctx, o)
	default:
		err = runAll(ctx, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "m2tdperf:", err)
		stop()
		os.Exit(1)
	}
}

// newWorkload builds the named workload at the plan's sizes.
func newWorkload(name string, seed int64, scratch string, p plan) (workload, error) {
	switch name {
	case "dense-join":
		return &pipeline{name: name, shape: p.dense, seed: seed, scratch: scratch}, nil
	case "factored-sim":
		return &pipeline{name: name, shape: p.factored, factored: true, probeShape: p.probe, seed: seed, scratch: scratch}, nil
	case "dist-procs":
		return &pipeline{name: name, shape: p.procs, dist: true, seed: seed, scratch: scratch}, nil
	case "served-mix":
		return &served{shape: p.served, seed: seed, scratch: scratch, rounds: p.rounds}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runOne is one run of one workload in this process.
func runOne(ctx context.Context, o options) error {
	// Everything the run writes — stores, WorkDirs, anything the library
	// puts in a temporary directory — stays under one scratch directory
	// inside the working directory, removed on the way out.
	scratch, err := os.MkdirTemp(".", ".m2tdperf-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	if scratch, err = filepath.Abs(scratch); err != nil {
		return err
	}
	os.Setenv("TMPDIR", scratch)

	p := newPlan(o.seconds, o.smoke)
	w, err := newWorkload(o.workload, o.seed, scratch, p)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()
	printHeader(os.Stdout, o)

	s, t := sheet{}, &tally{}
	defs := endToEnd
	if o.trace {
		defs = perLayer
		rec := newRecorder(o.workload)
		err = tracedRun(ctx, w, p, rec, s, t, filepath.Join(scratch, "served-probe"))
		if err == nil && o.traceOut != "" {
			err = appendJSONL(o.traceOut, rec.snapshot())
		}
	} else {
		err = timedRun(ctx, w, p, s, t)
	}
	if err != nil {
		return err
	}
	s.print(os.Stdout, defs)
	metrics, err := s.export(defs)
	if err != nil {
		return err
	}
	line, err := json.Marshal(result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if t.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", o.workload, t.failed, t.attempted)
	}
	return nil
}

// printHeader records where and on what the numbers were measured.
func printHeader(w io.Writer, o options) {
	pass := "timed arms"
	if o.trace {
		pass = "traced pass"
	}
	fmt.Fprintf(w, "m2tdperf %s (%s) seed=%d seconds=%d smoke=%t nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		o.workload, pass, o.seed, o.seconds, o.smoke, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// child runs one workload pass in a fresh process and returns its result
// line. The child's report goes to out.
func child(ctx context.Context, o options, name string, seed int64, trace bool, out io.Writer) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(o.seconds), "-trace", "0"}
	if trace {
		args[len(args)-1] = "1"
		if o.traceOut != "" {
			args = append(args, "-trace-out", o.traceOut)
		}
	}
	if o.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()

	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Fprintln(out, last)
		}
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		fmt.Fprintln(out, last)
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", name, runErr)
		}
		return nil, fmt.Errorf("%s: no result line: %w", name, err)
	}
	return &res, nil
}

// runAll runs every workload, timed and then traced, a fresh process
// each, and fails if any check failed.
func runAll(ctx context.Context, o options) error {
	if o.traceOut != "" {
		if err := os.WriteFile(o.traceOut, nil, 0o644); err != nil {
			return err
		}
	}
	var failed []string
	for _, w := range workloadDefs {
		for _, trace := range []bool{false, true} {
			res, err := child(ctx, o, w.Name, o.seed, trace, os.Stdout)
			if err != nil {
				return err
			}
			if !res.Correct {
				failed = append(failed, w.Name)
			}
			if trace && !o.smoke {
				// The acceptance criterion on attribution: the staged spans
				// must add up to the untraced campaign on the two pipeline
				// workloads.
				if u := res.Metrics["m2td.unattributed_frac"].Value; (w.Name == "dense-join" || w.Name == "factored-sim") && (u > 0.10 || u < -0.10) {
					fmt.Printf("  VIOLATION: %s m2td.unattributed_frac %.3f outside ±0.10\n", w.Name, u)
					failed = append(failed, w.Name+" (unattributed time)")
				}
			}
		}
		fmt.Println()
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed: %s", strings.Join(failed, ", "))
	}
	return nil
}

// runRepeat runs the timed arms of every workload o.repeat times, each on
// its own seed, and prints per workload and end-to-end metric every run's
// value, the spread (inter-quartile distance over the median) and whether
// the spread resolves the metric's bound.
func runRepeat(ctx context.Context, o options) error {
	values := make(map[string]map[string][]float64)
	var failed []string
	for k := 0; k < o.repeat; k++ {
		for _, w := range workloadDefs {
			res, err := child(ctx, o, w.Name, o.seed+int64(k), false, io.Discard)
			if err != nil {
				return err
			}
			if !res.Correct {
				failed = append(failed, fmt.Sprintf("%s seed %d", w.Name, o.seed+int64(k)))
			}
			if values[w.Name] == nil {
				values[w.Name] = make(map[string][]float64)
			}
			for name, v := range res.Metrics {
				values[w.Name][name] = append(values[w.Name][name], v.Value)
			}
			fmt.Fprintf(os.Stderr, "run %d/%d %s done\n", k+1, o.repeat, w.Name)
		}
	}
	unresolved := 0
	for _, w := range workloadDefs {
		fmt.Printf("%s\n", w.Name)
		for _, d := range endToEnd {
			vs := values[w.Name][d.Name]
			sp := spread(vs)
			verdict := "ok"
			if d.Name != "setup_s" && sp > d.Bound {
				verdict = "unresolved"
				unresolved++
			}
			fmt.Printf("  %-24s median %-12.6g spread %-9.5f bound %-8g %-10s", d.Name, median(vs), sp, d.Bound, verdict)
			for _, v := range vs {
				fmt.Printf(" %.6g", v)
			}
			fmt.Println()
		}
	}
	fmt.Printf("%d unresolved\n", unresolved)
	if len(failed) > 0 {
		return fmt.Errorf("failed: %s", strings.Join(failed, ", "))
	}
	return nil
}
