package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ---- package classification ----------------------------------------------

// kernelPkgs are the base names of the kernel packages whose results
// must be bit-identical at any worker count (DESIGN.md §8). A package
// qualifies when its import path contains an "internal/" element and its
// final element is a key here — the suffix rule lets the golden testdata
// packages under internal/lint/testdata/src/ opt in by name.
//
// The value marks the stricter hash-only tier: packages whose kernels fan
// entry loops out over arbitrary worker counts, so randomness there must
// be a counter-based hash of seed + index and even an explicit seeded
// *rand.Rand (whose draws follow traversal order) is banned — the
// math/rand import itself is the violation. mat, ensemble and dist stay in
// the seeded tier: their generators are threaded explicitly and consumed
// serially, which the determinism contract permits.
var kernelPkgs = map[string]bool{
	"tensor":   true,
	"tucker":   true,
	"core":     true,
	"stitch":   true,
	"parallel": true,
	"mat":      false,
	"ensemble": false,
	"dist":     false,
}

// kernelPkg classifies an import path: kernel reports a bit-stable kernel
// package, hashOnly its hash-only tier.
func kernelPkg(path string) (kernel, hashOnly bool) {
	if !strings.Contains(path, "internal/") {
		return false, false
	}
	hashOnly, kernel = kernelPkgs[pathBase(path)]
	return kernel, hashOnly
}

// isToolPkg reports whether the import path is a command or example —
// process entry points where wall clocks, context.Background, and
// operator-facing output are legitimate.
func isToolPkg(path string) bool {
	return strings.Contains(path, "/cmd/") || strings.Contains(path, "/examples/") ||
		strings.HasPrefix(path, "cmd/") || strings.HasPrefix(path, "examples/")
}

// pathBase is the final import-path element — the hook every suffix rule
// hangs off, so golden testdata packages opt into a rule by directory
// name exactly as the PR 5 analyzers allow.
func pathBase(path string) string {
	return path[strings.LastIndex(path, "/")+1:]
}

// isStorePkg reports whether the import path names the sanctioned
// durable-store implementation, the one place direct os file mutation is
// legitimate (it IS the temp+rename+CRC protocol).
func isStorePkg(path string) bool { return pathBase(path) == "store" }

// isObsPkg reports whether the import path names the obs package itself,
// whose Keyed* instrument constructors legitimately build metric names
// at runtime (from a constant base plus a sanitized key).
func isObsPkg(path string) bool { return pathBase(path) == "obs" }

// ---- stack-tracking AST walk ---------------------------------------------

// walkStack traverses root depth-first, invoking fn with each node and
// the stack of its ancestors (outermost first, not including n itself).
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}

// ---- type helpers --------------------------------------------------------

// calleeFunc resolves the function or method a call expression invokes,
// or nil for builtins, conversions, and indirect calls.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.ObjectOf(id).(*types.Func)
	return fn
}

// isPkgFunc reports whether fn is the package-level function pkgPath.name.
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// namedOf unwraps pointers and aliases down to a *types.Named, or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamedType reports whether t (possibly behind a pointer) is the named
// type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	n := namedOf(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool { return isNamedType(t, "context", "Context") }

// isFloatType reports whether t's core type is a floating-point basic
// type (incl. untyped float).
func isFloatType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// methodReceiverIs reports whether fn is a method whose receiver's named
// type is pkgPath.typeName.
func methodReceiverIs(fn *types.Func, pkgPath, typeName string) bool {
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return isNamedType(sig.Recv().Type(), pkgPath, typeName)
}

// firstParamIsContext reports whether fn's first (non-receiver) parameter
// is a context.Context.
func firstParamIsContext(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return false
	}
	return isContextType(sig.Params().At(0).Type())
}

// lookupMethod finds a method by name on t's named type (value or
// pointer receiver), or nil.
func lookupMethod(t types.Type, name string) *types.Func {
	n := namedOf(t)
	if n == nil {
		return nil
	}
	for i := 0; i < n.NumMethods(); i++ {
		if m := n.Method(i); m.Name() == name {
			return m
		}
	}
	return nil
}

// enclosingFuncDecl returns the innermost enclosing *ast.FuncDecl from a
// walk stack, or nil.
func enclosingFuncDecl(stack []ast.Node) *ast.FuncDecl {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd
		}
	}
	return nil
}
