package lint

import (
	"go/ast"
)

// tensorPkgPath is the package whose backing slices the analyzer guards.
const tensorPkgPath = "repro/internal/tensor"

// Quarantine guards the divergence-quarantine contract of internal/tensor
// (DESIGN.md §6): NaN/±Inf may only enter a tensor through
// quarantine-checked setters (Sparse.Append/AppendBlock, Dense.Set).
//
// Outside the tensor package, any direct write to a tensor's backing
// slices — assigning or element-writing Sparse.Vals / Sparse.Idx /
// Dense.Data, or using them as a copy destination — bypasses that check
// and is flagged. Legitimate kernel writes (values proven finite, or the
// tensor freshly built) carry a //lint:allow quarantine -- <reason>
// annotation stating that proof.
var Quarantine = &Analyzer{
	Name: "quarantine",
	Doc: "forbid direct writes to tensor backing slices (Sparse.Vals/Idx, " +
		"Dense.Data) outside internal/tensor",
	Run: runQuarantine,
}

func runQuarantine(p *Pass) {
	if isTensorPkg(p.Pkg.Path) {
		return
	}
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if field, kind := backingSliceRef(p, lhs); field != "" {
						p.Reportf(lhs.Pos(), "direct write to %s.%s bypasses the %s; use the quarantine-checked setters or annotate with the finiteness proof", kind, field, bypassed(kind))
					}
				}
			case *ast.IncDecStmt:
				if field, kind := backingSliceRef(p, n.X); field != "" {
					p.Reportf(n.X.Pos(), "direct write to %s.%s bypasses the %s; use the quarantine-checked setters or annotate with the finiteness proof", kind, field, bypassed(kind))
				}
			case *ast.CallExpr:
				// copy(t.Vals[...], src) mutates the backing slice too.
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "copy" && p.ObjectOf(id) != nil && p.ObjectOf(id).Pkg() == nil && len(n.Args) == 2 {
					if field, kind := backingSliceRef(p, n.Args[0]); field != "" {
						p.Reportf(n.Args[0].Pos(), "copy into %s.%s mutates the backing slice directly, bypassing the %s; annotate with the finiteness proof", kind, field, bypassed(kind))
					}
				}
			}
			return true
		})
	}
}

// bypassed names the protection a direct write to the given tensor kind
// skips.
func bypassed(kind string) string {
	if kind == "Dense" {
		return "Set quarantine (RejectNonFinite)"
	}
	return "Append quarantine (RejectNonFinite)"
}

// backingSliceRef reports whether expr is (an index/slice of) a tensor
// backing-slice field, returning the field name and owning kind
// ("Sparse" or "Dense"), or "", "".
func backingSliceRef(p *Pass, expr ast.Expr) (field, kind string) {
	sel := rootSelector(expr)
	if sel == nil {
		return "", ""
	}
	recv := p.TypeOf(sel.X)
	switch sel.Sel.Name {
	case "Vals", "Idx":
		if isNamedType(recv, tensorPkgPath, "Sparse") {
			return sel.Sel.Name, "Sparse"
		}
	case "Data":
		if isNamedType(recv, tensorPkgPath, "Dense") {
			return sel.Sel.Name, "Dense"
		}
	}
	return "", ""
}
