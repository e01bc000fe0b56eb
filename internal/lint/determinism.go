package lint

import (
	"go/ast"
	"go/types"
	"strconv"
)

// Determinism enforces the bit-stability contract of the kernel packages
// (internal/{tensor,mat,tucker,core,stitch,parallel,ensemble}): their
// results must be identical for any worker count and across runs, which
// the workers=1-vs-N regression suites assert via math.Float64bits. Three
// sources of silent nondeterminism are banned there:
//
//   - ranging over a map (iteration order is randomized by the runtime);
//   - the global math/rand (and math/rand/v2) source — all randomness
//     must flow through an explicit, seeded *rand.Rand;
//   - reading the wall clock (time.Now/Since/Until) — wall time may only
//     feed gauges, never values.
//
// The hash-only tier (util.go's kernelPkgs: tensor, tucker, core,
// stitch, parallel) goes further in two ways. Importing math/rand at all
// is banned there: those packages fan per-entry loops out over arbitrary
// worker counts, so even an explicit seeded *rand.Rand — whose draws
// depend on traversal order — cannot produce bit-stable results;
// randomness must be a counter-based hash of seed + index (DESIGN.md §12).
// And a kernel there never times itself, through the clock or through
// obs.StartStopwatch: its caller does, by the span the kernel opens or
// the clock around the call.
//
// Escape hatch: //lint:allow determinism -- <reason>.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid map iteration, global math/rand, and wall-clock reads in the " +
		"bit-stable kernel packages",
	Run: runDeterminism,
}

// obsPkgPath is the observability package, whose StartStopwatch the
// hash-only tier may not call.
const obsPkgPath = "repro/internal/obs"

// bannedClockFuncs are package-level time functions that read the wall
// clock or scheduler state.
var bannedClockFuncs = map[string]bool{
	"Now":   true,
	"Since": true,
	"Until": true,
}

// randConstructors are the only package-level math/rand symbols the
// kernels may touch: deterministic construction of explicit generators.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

func runDeterminism(p *Pass) {
	kernel, hashOnly := kernelPkg(p.Pkg.Path)
	if !kernel {
		return
	}
	for _, file := range p.Pkg.Files {
		if hashOnly {
			for _, imp := range file.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if path == "math/rand" || path == "math/rand/v2" {
					p.Reportf(imp.Pos(), "import of %s in a hash-only kernel package; randomness there must be a counter-based hash of seed + index (DESIGN.md §12)", path)
				}
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				t := p.TypeOf(n.X)
				if t != nil {
					if _, ok := t.Underlying().(*types.Map); ok {
						p.Reportf(n.Range, "range over a map has nondeterministic iteration order in a bit-stable kernel package; iterate sorted keys instead")
					}
				}
			case *ast.CallExpr:
				fn := calleeFunc(p.Pkg.Info, n)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				sig, _ := fn.Type().(*types.Signature)
				if sig == nil || sig.Recv() != nil {
					return true // methods on explicit *rand.Rand values are fine
				}
				switch fn.Pkg().Path() {
				case "time":
					if bannedClockFuncs[fn.Name()] {
						p.Reportf(n.Pos(), "time.%s reads the wall clock in a bit-stable kernel package; a kernel never times itself — its caller reads the kernel's span or the clock around the call", fn.Name())
					}
				case obsPkgPath:
					if hashOnly && fn.Name() == "StartStopwatch" {
						p.Reportf(n.Pos(), "obs.StartStopwatch reads the wall clock in a hash-only kernel package; a kernel never times itself — its caller reads the kernel's span or the clock around the call")
					}
				case "math/rand", "math/rand/v2":
					// In hash-only packages the import diagnostic already
					// covers every use; per-call reports would be noise.
					if !hashOnly && !randConstructors[fn.Name()] {
						p.Reportf(n.Pos(), "%s.%s uses the global random source; thread an explicit seeded *rand.Rand instead", fn.Pkg().Name(), fn.Name())
					}
				}
			}
			return true
		})
	}
}
