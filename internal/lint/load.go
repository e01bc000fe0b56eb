package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// The loader type-checks packages without golang.org/x/tools/go/packages:
// `go list -export -deps -json` compiles every dependency and reports the
// path of its export data, the target packages' sources are parsed with
// go/parser, and go/types resolves imports through a gc-export-data
// importer fed from those files. Fully offline and cache-friendly — the
// go build cache makes repeat runs cheap.

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Incomplete bool
	Error      *listError
	DepsErrors []*listError
}

type listError struct {
	Pos string
	Err string
}

// Load lists, compiles, parses, and type-checks the packages matching
// patterns, resolving them relative to dir (normally the module root).
// Test files are not loaded: the invariants police library code, and
// tests legitimately use wall clocks, context.Background, and exact
// float comparisons (bit-stability assertions).
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	exports := make(map[string]string)
	var targets []*listPackage
	dec := json.NewDecoder(&stdout)
	for {
		var lp listPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if !lp.DepOnly && !lp.Standard {
			p := lp
			targets = append(targets, &p)
		}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("go list %s: no packages matched", strings.Join(patterns, " "))
	}

	fset := token.NewFileSet()
	imp := exportImporter{importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})}

	var pkgs []*Package
	for _, lp := range targets {
		pkg, err := typeCheck(fset, imp, lp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// exportImporter wraps the gc importer, special-casing "unsafe" (which
// has no export data file).
type exportImporter struct{ base types.Importer }

func (e exportImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return e.base.Import(path)
}

func typeCheck(fset *token.FileSet, imp types.Importer, lp *listPackage) (*Package, error) {
	var files []*ast.File
	allows := make(map[string]map[int][]*allowDirective)
	for _, name := range lp.GoFiles {
		path := filepath.Join(lp.Dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", path, err)
		}
		files = append(files, f)
		allows[path] = parseAllows(fset, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: imp}
	if _, err := conf.Check(lp.ImportPath, fset, files, info); err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", lp.ImportPath, err)
	}
	return &Package{
		Path:   lp.ImportPath,
		Fset:   fset,
		Files:  files,
		Info:   info,
		allows: allows,
	}, nil
}

// ModuleRoot returns the directory containing the enclosing module's
// go.mod, resolved from dir ("" = current directory). Used by the CLI
// and the tests so the loader always runs with module-root-relative
// patterns.
func ModuleRoot(dir string) (string, error) {
	cmd := exec.Command("go", "env", "GOMOD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("not inside a Go module (go env GOMOD = %q)", gomod)
	}
	return filepath.Dir(gomod), nil
}
