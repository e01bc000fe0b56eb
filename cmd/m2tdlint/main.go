// Command m2tdlint runs the repository's custom invariant analyzers
// (internal/lint) over the module: determinism of the kernel packages,
// context propagation, floating-point comparison discipline, atomic-store
// routing, and metric-name hygiene. See DESIGN.md §8 for the rule table
// and the //lint:allow suppression policy.
//
// Usage:
//
//	m2tdlint [flags] [packages]
//
//	-json             emit findings as a JSON array (file/line/col/analyzer/message)
//	-analyzers list   comma-separated subset of analyzers to run (default: all)
//	-list             print the available analyzers and exit
//
// Packages default to ./... resolved from the enclosing module root.
// Exit status: 0 = clean, 1 = findings, 2 = usage or load failure.
//
// The -json mode is what CI runs and archives, so lint findings can be
// diffed across commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// finding is the JSON shape of one diagnostic.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("m2tdlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as JSON")
	names := fs.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	list := fs.Bool("list", false, "print the available analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range lint.All {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := lint.All
	if *names != "" {
		analyzers = nil
		for _, n := range strings.Split(*names, ",") {
			n = strings.TrimSpace(n)
			a := lint.ByName(n)
			if a == nil {
				fmt.Fprintf(stderr, "m2tdlint: unknown analyzer %q\n", n)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	root, err := lint.ModuleRoot("")
	if err != nil {
		fmt.Fprintf(stderr, "m2tdlint: %v\n", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(root, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "m2tdlint: %v\n", err)
		return 2
	}

	diags := lint.RunPackages(pkgs, analyzers)
	if *jsonOut {
		findings := make([]finding, 0, len(diags))
		for _, d := range diags {
			findings = append(findings, finding{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(stderr, "m2tdlint: %v\n", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(stderr, "m2tdlint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		}
		return 1
	}
	return 0
}
