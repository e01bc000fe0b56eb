// Command tracecat replays a structured trace log (the JSONL written by
// `m2tdbench -run -trace-out` or m2td.WriteTrace) and prints a
// human-readable summary: the stage-span tree with durations, counters,
// and gauges, followed by the process-wide metrics snapshot recorded at
// the end of the run. A span the log caught before its Finish is marked
// "(running)", and the footer counts them.
//
// Usage:
//
//	tracecat trace.jsonl
//	m2tdbench -run -trace-out /dev/stdout 2>/dev/null | tracecat -
//
// The span tree's names, hierarchy, and counters are deterministic for a
// given configuration (only durations and gauges vary between runs), so
// two tracecat outputs of the same configuration diff cleanly on
// everything that matters.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: tracecat <trace.jsonl | ->")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	var in io.Reader = os.Stdin
	if path := flag.Arg(0); path != "-" {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	if err := summarize(in, os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracecat:", err)
	os.Exit(1)
}

// summarize replays one trace log and writes the human-readable summary.
func summarize(r io.Reader, w io.Writer) error {
	root, snapshot, err := obs.ReadJSONL(r)
	if err != nil {
		return err
	}
	if root == nil {
		fmt.Fprintln(w, "(trace log carries no spans)")
	} else {
		spans, running := 0, 0
		root.Walk(func(depth int, s *obs.SpanData) {
			spans++
			mark := ""
			if s.Running {
				running++
				mark = " (running)"
			}
			fmt.Fprintf(w, "%s%-*s %10s%s%s%s\n",
				strings.Repeat("  ", depth),
				28-2*depth, s.Name,
				time.Duration(s.DurNS).Round(time.Microsecond),
				kvs(" ", s.Counters),
				kvs(" ~", s.Gauges),
				mark)
		})
		count := fmt.Sprintf("%d spans", spans)
		if running > 0 {
			count += fmt.Sprintf(" (%d running)", running)
		}
		fmt.Fprintf(w, "\n%s, total %s\n", count, time.Duration(root.DurNS).Round(time.Microsecond))
	}
	if snapshot != nil {
		fmt.Fprintln(w, "\nmetrics snapshot:")
		keys := make([]string, 0, len(snapshot))
		for k := range snapshot {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %-40s %v\n", k, snapshot[k])
		}
	}
	return nil
}

// kvs renders a counter/gauge map in sorted key order, each entry
// prefixed with prefix ("~" marks non-deterministic gauges).
func kvs(prefix string, m map[string]int64) string {
	if len(m) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s%s=%d", prefix, k, m[k])
	}
	return b.String()
}
