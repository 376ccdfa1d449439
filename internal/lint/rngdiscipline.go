package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// rngPkg is the module's random-number package; every random draw in
// simulation code must flow through its stream constructors.
const rngPkg = "dsmc/internal/rng"

// Tiers of the rng-discipline rule, chosen by the package doc comment's
// directive. In the strict tier (//dsmclint:scope rng-discipline) every
// stream must come from the counter-based coordinates (rng.KeyAt(seed,
// epoch).At(lane), seeded via rng.JobSeed for ensemble jobs) — that is
// the domain-separation argument that makes results bit-identical at any
// worker count and job seeds injective per master seed. The serial tier
// (//dsmclint:scope rng-discipline=serial) additionally permits
// rng.NewStream/rng.Streams for a backend's single serial stream (the
// reservoir-relaxation stream sim/sim3 checkpoint and restore); it still
// forbids ad-hoc sources and raw Stream literals.
const tierSerial = "serial"

// RNGDiscipline enforces that simulation randomness flows only from
// internal/rng's stream constructors: no math/rand or crypto/rand, no
// raw rng.Stream composite literals (which bypass the seeding
// discipline entirely), and — in strict-tier packages — no
// rng.NewStream/rng.Streams, whose sequentially-derived states carry
// none of KeyAt/At's (seed, epoch, lane) domain separation.
type RNGDiscipline struct{}

// Name implements Rule.
func (RNGDiscipline) Name() string { return "rng-discipline" }

// Doc implements Rule.
func (RNGDiscipline) Doc() string {
	return "random draws in simulation code flow only from internal/rng stream constructors (KeyAt/At, JobSeed)"
}

// Check implements Rule.
func (r RNGDiscipline) Check(pkg *Package) []Diagnostic {
	arg, opted := pkg.scopeArg(r.Name())
	if !opted {
		return nil
	}
	strict := arg != tierSerial
	var out []Diagnostic
	diag := func(n ast.Node, format string, args ...any) {
		out = append(out, Diagnostic{pkg.Fset.Position(n.Pos()), r.Name(), fmt.Sprintf(format, args...)})
	}
	for _, f := range pkg.Files {
		for _, spec := range f.Imports {
			switch importPath(spec) {
			case "math/rand", "math/rand/v2", "crypto/rand":
				diag(spec, "import of %s: simulation randomness must come from internal/rng streams (KeyAt/At, or JobSeed-derived seeds)", importPath(spec))
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if isRNGStreamType(pkg.Info.TypeOf(n)) {
					diag(n, "composite literal of rng.Stream bypasses the seeding discipline; construct streams with rng.KeyAt(seed, epoch).At(lane)")
				}
			case *ast.CallExpr:
				if !strict {
					return true
				}
				fn := calleeFunc(pkg.Info, n)
				if isPkgFunc(fn, rngPkg, "NewStream") || isPkgFunc(fn, rngPkg, "Streams") {
					diag(n, "ad-hoc stream constructor rng.%s in a strict-tier package: derive streams from counter coordinates with rng.KeyAt(seed, epoch).At(lane) (ensemble seeds via rng.JobSeed)", fn.Name())
				}
			}
			return true
		})
	}
	return out
}

// isRNGStreamType reports whether t is rng.Stream.
func isRNGStreamType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == rngPkg && obj.Name() == "Stream"
}
