package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxProp enforces the context-first discipline introduced by the
// fault-tolerant runtime (DESIGN.md §6): cancellation and stage
// deadlines only work if the context actually reaches the kernels.
//
// Three rules:
//
//  1. Inside any function that receives a context.Context, calling a
//     function or method F when a sibling FCtx(ctx, ...) variant exists
//     drops the caller's context on the floor — the FCtx variant must be
//     called instead. (This is exactly the bug the PR 4 facade fixed in
//     legacy Decompose, which silently lost the worker pool's context.)
//
//  2. Library code must not mint fresh root contexts via
//     context.Background()/context.TODO(): roots belong to process entry
//     points (cmd/, examples/) and tests. The one exception left is a
//     process entry point that lives in a library package (the distnet
//     worker's root) and carries a //lint:allow ctxprop annotation.
//
//  3. A function or method that takes a net connection (any net.*Conn
//     type) must also take a context.Context: connection-handling loops
//     are exactly the code that must die when the coordinator's context
//     is cancelled (the internal/distnet RPC server/handler pattern), and
//     a conn parameter without a ctx parameter cannot be cancelled.
var CtxProp = &Analyzer{
	Name: "ctxprop",
	Doc: "require ctx-taking functions to call Ctx variants of their callees, " +
		"forbid context.Background/TODO in library code, " +
		"and require conn-handling functions to accept a context",
	Run: runCtxProp,
}

func runCtxProp(p *Pass) {
	if isToolPkg(p.Pkg.Path) {
		return
	}
	for _, file := range p.Pkg.Files {
		// Rule 3 is a per-declaration property, checked off the call walk.
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Type.Params == nil {
				continue
			}
			conn := ""
			for _, field := range fd.Type.Params.List {
				if n := netConnTypeOf(p.TypeOf(field.Type)); n != "" {
					conn = n
					break
				}
			}
			if conn != "" && !funcTakesContext(p, fd) {
				p.Reportf(fd.Pos(), "%s handles a %s without a context.Context parameter; connection loops must be cancellable — thread the coordinator's ctx through", fd.Name.Name, conn)
			}
		}
		walkStack(file, func(n ast.Node, stack []ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			fn := calleeFunc(p.Pkg.Info, call)
			if fn == nil {
				return
			}

			// Rule 2: no fresh root contexts in library code.
			if isPkgFunc(fn, "context", "Background") || isPkgFunc(fn, "context", "TODO") {
				p.Reportf(call.Pos(), "context.%s mints a fresh root context in library code; accept a ctx parameter (or annotate a deliberate legacy wrapper)", fn.Name())
				return
			}

			// Rule 1: only applies inside functions that hold a context.
			decl := enclosingFuncDecl(stack)
			if decl == nil || !funcTakesContext(p, decl) {
				return
			}
			if strings.HasSuffix(fn.Name(), "Ctx") {
				return
			}
			if decl.Name.Name == fn.Name()+"Ctx" {
				// The Ctx variant implementing itself on top of the base
				// primitive (e.g. ForCtx wrapping For with strip polling)
				// is the sanctioned pattern, not a dropped context.
				return
			}
			variant := ctxVariantOf(fn)
			if variant == nil {
				return
			}
			p.Reportf(call.Pos(), "%s drops the caller's context; call %s with the function's ctx instead", fn.Name(), variant.Name())
		})
	}
}

// netConnTypeOf returns the display name ("net.Conn", "net.TCPConn", ...)
// when t is — or points to — one of package net's connection types, and ""
// otherwise. The *Conn suffix convention covers Conn itself, the concrete
// TCPConn/UDPConn/UnixConn/IPConn, and PacketConn.
func netConnTypeOf(t types.Type) string {
	n := namedOf(t)
	if n == nil {
		return ""
	}
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "net" {
		return ""
	}
	if !strings.HasSuffix(obj.Name(), "Conn") {
		return ""
	}
	return "net." + obj.Name()
}

// funcTakesContext reports whether the declared function has a parameter
// of type context.Context.
func funcTakesContext(p *Pass, decl *ast.FuncDecl) bool {
	if decl.Type.Params == nil {
		return false
	}
	for _, field := range decl.Type.Params.List {
		if isContextType(p.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

// ctxVariantOf finds a sibling of fn named fn.Name()+"Ctx" whose first
// parameter is a context.Context: same package scope for functions, same
// named receiver type for methods. Standard-library callees are skipped —
// the convention is this module's.
func ctxVariantOf(fn *types.Func) *types.Func {
	if fn.Pkg() == nil || isStdlibPath(fn.Pkg().Path()) {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	name := fn.Name() + "Ctx"
	var candidate *types.Func
	if sig.Recv() != nil {
		candidate = lookupMethod(sig.Recv().Type(), name)
	} else {
		candidate, _ = fn.Pkg().Scope().Lookup(name).(*types.Func)
	}
	if candidate == nil || !firstParamIsContext(candidate) {
		return nil
	}
	return candidate
}

// isStdlibPath reports whether an import path belongs to the standard
// library (no dot in the first element, and not this module's "repro").
func isStdlibPath(path string) bool {
	first, _, _ := strings.Cut(path, "/")
	return !strings.Contains(first, ".") && first != "repro"
}
