package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// Determinism forbids the three classic nondeterminism leaks in
// determinism-critical packages: wall-clock reads (time.Now/time.Since),
// the global math/rand generator, and ranging over maps. A package whose
// results must be bit-identical for any worker count, pool size or host
// opts in with //dsmclint:scope determinism in its package doc comment;
// a leak there is the bug class the golden hashes catch late, and this
// rule catches it at the line that introduced it. The CM backend (cm,
// cmsim) stays out: per-phase wall-clock metering is its point, and its
// results feed no golden.
type Determinism struct{}

// Name implements Rule.
func (Determinism) Name() string { return "determinism" }

// Doc implements Rule.
func (Determinism) Doc() string {
	return "no wall-clock reads, global math/rand, or map-order iteration in determinism-critical packages"
}

// Check implements Rule.
func (d Determinism) Check(pkg *Package) []Diagnostic {
	if _, opted := pkg.scopeArg(d.Name()); !opted {
		return nil
	}
	var out []Diagnostic
	diag := func(n ast.Node, format string, args ...any) {
		out = append(out, Diagnostic{pkg.Fset.Position(n.Pos()), d.Name(), fmt.Sprintf(format, args...)})
	}
	for _, f := range pkg.Files {
		for _, spec := range f.Imports {
			switch importPath(spec) {
			case "math/rand", "math/rand/v2":
				diag(spec, "import of %s: the global generator is seeded outside the counter-based stream discipline; draw from internal/rng streams", importPath(spec))
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := calleeFunc(pkg.Info, n)
				if isPkgFunc(fn, "time", "Now") || isPkgFunc(fn, "time", "Since") {
					diag(n, "call to time.%s: wall-clock reads are nondeterministic; keep clocks out of result-bearing code (waive for diagnostics-only timing)", fn.Name())
				}
			case *ast.RangeStmt:
				if t := pkg.Info.TypeOf(n.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						diag(n, "range over a map: iteration order is randomized per run; iterate a sorted key slice instead (waive if the loop body is order-invariant)")
					}
				}
			}
			return true
		})
	}
	return out
}
