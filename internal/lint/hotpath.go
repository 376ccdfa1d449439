package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// HotpathAlloc flags allocation sources inside functions that declare
// the fact //dsmc:hotpath — the engine step pipeline, the width-grouped
// kernels, the fused cell sort and the sampling sweep. The AllocsPerRun
// tests assert the zero-allocation property end to end; this rule
// attributes it per line, so a future edit that re-introduces an
// allocation fails CI pointing at the exact expression. It flags make,
// new, closure literals (func literals created per call escape to the
// heap), append onto slices the function did not visibly preallocate,
// string concatenation, and calls into
// package fmt (formatting allocates and boxes every operand). Plain
// method calls are accepted — in particular the obs registry's atomic
// metric increments (Counter.Inc/Add, Gauge.Set, Histogram.Observe)
// are the sanctioned way to instrument a hot path: the instruments
// are resolved at construction time and the record path is
// allocation-free by obs's own AllocsPerRun test. Metric names must
// therefore be constants too — a formatted or concatenated name on
// the record path is exactly what the string checks catch. Amortized
// grow paths — a scratch buffer that re-makes itself when it is
// outgrown once and is stable after — are legitimate and should carry
// a //dsmclint:allow waiver saying so.
type HotpathAlloc struct{}

// Name implements Rule.
func (HotpathAlloc) Name() string { return "hotpath-alloc" }

// Doc implements Rule.
func (HotpathAlloc) Doc() string {
	return "no allocation sources (make/new/closures/unpreallocated append/string building) in //dsmc:hotpath functions"
}

// Check implements Rule.
func (h HotpathAlloc) Check(pkg *Package) []Diagnostic {
	if pkg.underTestdata() {
		if _, opted := pkg.scopeArg(h.Name()); !opted {
			return nil
		}
	}
	var out []Diagnostic
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasFact(fd, "hotpath") {
				continue
			}
			out = append(out, h.checkFunc(pkg, fd)...)
		}
	}
	return out
}

// checkFunc walks one hot function. Preallocation tracking is a simple
// source-order approximation that matches the repo's idiom: a slice is
// considered preallocated when the function binds it from a
// length-zero reslice of an existing buffer (buf[:0]), a full slice
// expression (buf[:n:c]), or a capacity-carrying make — and an append
// whose result rebinds the same variable keeps the status.
func (h HotpathAlloc) checkFunc(pkg *Package, fd *ast.FuncDecl) []Diagnostic {
	var out []Diagnostic
	diag := func(pos token.Pos, format string, args ...any) {
		out = append(out, Diagnostic{pkg.Fset.Position(pos), h.Name(), fmt.Sprintf(format, args...)})
	}
	prealloc := map[string]bool{}
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringExpr(pkg, n.Lhs[0]) {
				diag(n.Pos(), "string concatenation in hot path %s allocates; build names at construction time", name)
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || i >= len(n.Rhs) {
					continue
				}
				if preallocates(pkg, prealloc, n.Rhs[i]) {
					prealloc[id.Name] = true
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringExpr(pkg, n) {
				diag(n.Pos(), "string concatenation in hot path %s allocates; build names at construction time", name)
			}
		case *ast.FuncLit:
			diag(n.Pos(), "closure literal in hot path %s allocates per call; prebuild it at construction time", name)
			return false // the literal's own body is not on the hot path
		case *ast.CallExpr:
			switch {
			case isBuiltin(pkg.Info, n, "make"):
				diag(n.Pos(), "make in hot path %s: preallocate at construction (waive for an amortized grow path)", name)
			case isBuiltin(pkg.Info, n, "new"):
				diag(n.Pos(), "new in hot path %s: hoist the allocation out of the steady state", name)
			case isBuiltin(pkg.Info, n, "append"):
				id, isIdent := ast.Unparen(n.Args[0]).(*ast.Ident)
				if !isIdent || !prealloc[id.Name] {
					diag(n.Pos(), "append onto a slice %s did not preallocate: reslice a prebuilt buffer to [:0] first, or waive with the capacity argument", name)
				}
			default:
				if fn := calleeFunc(pkg.Info, n); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
					diag(n.Pos(), "fmt.%s in hot path %s allocates and boxes its operands; format off the hot path", fn.Name(), name)
				}
			}
		}
		return true
	})
	return out
}

// isStringExpr reports whether the expression's type is (an alias or
// named form of) string, resolved through the type info so the check
// fires on real string building, not numeric addition.
func isStringExpr(pkg *Package, e ast.Expr) bool {
	t := pkg.Info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// preallocates reports whether binding a variable to rhs marks it
// preallocated for append purposes.
func preallocates(pkg *Package, prealloc map[string]bool, rhs ast.Expr) bool {
	switch rhs := ast.Unparen(rhs).(type) {
	case *ast.SliceExpr:
		if rhs.Slice3 {
			return true
		}
		// buf[:0] (or buf[lo:lo]) — the canonical reuse idiom.
		if lit, ok := rhs.High.(*ast.BasicLit); ok && lit.Value == "0" {
			return true
		}
	case *ast.CallExpr:
		// make with an explicit capacity (itself flagged separately when
		// it sits inside the hot function; fine when waived as a grow).
		if isBuiltin(pkg.Info, rhs, "make") && len(rhs.Args) == 3 {
			return true
		}
		// x = append(x, ...) chains keep the source's status.
		if isBuiltin(pkg.Info, rhs, "append") {
			if id, ok := ast.Unparen(rhs.Args[0]).(*ast.Ident); ok {
				return prealloc[id.Name]
			}
		}
	}
	return false
}
