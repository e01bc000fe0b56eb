package lint

import (
	"go/ast"
)

// tensorPkgPath is the package whose backing slices the analyzer guards.
const tensorPkgPath = "repro/internal/tensor"

// Quarantine guards the ingest gate of internal/tensor (DESIGN.md §6):
// NaN/±Inf may only enter a sparse tensor through the quarantine-checked
// setters (Sparse.Append/AppendBlock).
//
// Outside the tensor package, any direct write to a sparse tensor's
// backing slices — assigning or element-writing Sparse.Vals / Sparse.Idx,
// or using them as a copy destination — bypasses that check and is
// flagged. Legitimate kernel writes (values proven finite, or the tensor
// freshly built) carry a //lint:allow quarantine -- <reason> annotation
// stating that proof.
var Quarantine = &Analyzer{
	Name: "quarantine",
	Doc:  "forbid direct writes to sparse tensor backing slices (Sparse.Vals/Idx) outside internal/tensor",
	Run:  runQuarantine,
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
					if field := backingSliceRef(p, lhs); field != "" {
						p.Reportf(lhs.Pos(), "direct write to Sparse.%s bypasses the Append quarantine (RejectNonFinite); use the quarantine-checked setters or annotate with the finiteness proof", field)
					}
				}
			case *ast.IncDecStmt:
				if field := backingSliceRef(p, n.X); field != "" {
					p.Reportf(n.X.Pos(), "direct write to Sparse.%s bypasses the Append quarantine (RejectNonFinite); use the quarantine-checked setters or annotate with the finiteness proof", field)
				}
			case *ast.CallExpr:
				// copy(t.Vals[...], src) mutates the backing slice too.
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "copy" && p.ObjectOf(id) != nil && p.ObjectOf(id).Pkg() == nil && len(n.Args) == 2 {
					if field := backingSliceRef(p, n.Args[0]); field != "" {
						p.Reportf(n.Args[0].Pos(), "copy into Sparse.%s mutates the backing slice directly, bypassing the Append quarantine (RejectNonFinite); annotate with the finiteness proof", field)
					}
				}
			}
			return true
		})
	}
}

// backingSliceRef reports whether expr is (an index/slice of) a sparse
// tensor's backing-slice field, returning the field name, or "".
func backingSliceRef(p *Pass, expr ast.Expr) string {
	sel := rootSelector(expr)
	if sel == nil {
		return ""
	}
	if name := sel.Sel.Name; (name == "Vals" || name == "Idx") && isNamedType(p.TypeOf(sel.X), tensorPkgPath, "Sparse") {
		return name
	}
	return ""
}
