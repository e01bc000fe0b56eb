// Package lint is m2tdlint: a suite of custom static analyzers encoding
// this repository's correctness invariants — determinism of the kernel
// packages, context propagation, floating-point comparison discipline,
// atomic artifact persistence, and metric-name hygiene. Each rule is one a test cannot see: a finding is a property
// of the source, not of any run. Span lifecycles are a run's property:
// the root package's TestSpansFinished checks them on every return path.
//
// The suite is intentionally built on the standard library alone
// (go/ast, go/types, and `go list -export` for dependency export data)
// so the module stays zero-dependency: the analyzers mirror the
// golang.org/x/tools/go/analysis Analyzer/Pass shape, and
// internal/lint/linttest mirrors analysistest's `// want "regexp"`
// golden convention, without importing either.
//
// Suppressions are explicit and must be justified:
//
//	expr // lint:allow <analyzer> -- <reason>
//
// (written as a //-comment; see allow.go). A directive without a reason,
// or naming an unknown analyzer, is itself a diagnostic, so the tree can
// never accumulate unexplained escapes. DESIGN.md §8 is the rule table
// and the suppression policy.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one invariant check. The shape deliberately
// mirrors golang.org/x/tools/go/analysis.Analyzer so the suite could be
// ported to the real multichecker framework if the dependency ever
// becomes available.
type Analyzer struct {
	// Name is the analyzer identifier used in diagnostics and in
	// //lint:allow directives.
	Name string
	// Doc is a one-paragraph description of the rule and its rationale.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// All is the registry of every analyzer in the suite, in stable order.
var All = []*Analyzer{
	Determinism,
	CtxProp,
	FloatCmp,
	AtomicStore,
	MetricHygiene,
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Diagnostic is one finding: a position, the analyzer that produced it,
// and a human-readable message.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the conventional file:line:col: [analyzer] message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the import path (e.g. "repro/internal/tucker").
	Path string
	// Fset positions every file in the package.
	Fset *token.FileSet
	// Files are the parsed non-test Go files.
	Files []*ast.File
	// Info carries the type-checker's fact tables for Files.
	Info *types.Info

	// allows maps file name → line → allow directives active there.
	allows map[string]map[int][]*allowDirective
}

// Pass carries one (analyzer, package) unit of work, mirroring
// analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos unless a justified
// //lint:allow directive covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if p.Pkg.allowed(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of an expression (nil if untypeable).
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// ObjectOf resolves an identifier to its object (definition or use).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.Pkg.Info.ObjectOf(id); o != nil {
		return o
	}
	return nil
}

// RunPackages applies each analyzer to each package and returns the
// combined findings sorted by position. Directive hygiene (unknown
// analyzer names, missing justifications) is validated here as well, so
// every invocation of the suite — the CLI, the golden tests, and the
// repo self-check — enforces the "no unexplained suppressions" policy.
func RunPackages(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, pkg.validateDirectives()...)
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Pkg: pkg, diags: &diags}
			a.Run(pass)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}
