package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
)

// FloatEq forbids == and != on floating-point operands outside test
// files. Exact float equality is almost always a latent bug in physics
// code — two mathematically equal paths differ in the last ulp and the
// branch silently flips. The legitimate exceptions are exact sentinels
// (a probability clamped to exactly 1, a value returned unchanged by a
// no-op branch): those carry a //dsmclint:allow waiver naming the
// sentinel.
//
// Comparison against the exact constant zero is permitted without a
// waiver: the zero-value-means-unset config sentinel and the
// division-by-zero guard are both exact by construction and pervasive;
// flagging them would bury the real findings. Every other constant —
// including 1, where clamped probabilities saturate — still flags.
//
// The rule checks every package but fixtures that do not opt in. Test
// files never reach it: the loader only reads non-test files.
type FloatEq struct{}

// Name implements Rule.
func (FloatEq) Name() string { return "float-eq" }

// Doc implements Rule.
func (FloatEq) Doc() string {
	return "no ==/!= on floating-point operands outside tests"
}

// Check implements Rule.
func (r FloatEq) Check(pkg *Package) []Diagnostic {
	if _, opted := pkg.scopeArg(r.Name()); !opted && pkg.underTestdata() {
		return nil
	}
	var out []Diagnostic
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if isZeroConst(pkg.Info, be.X) || isZeroConst(pkg.Info, be.Y) {
				return true
			}
			if isFloatOperand(pkg.Info.TypeOf(be.X)) || isFloatOperand(pkg.Info.TypeOf(be.Y)) {
				out = append(out, Diagnostic{pkg.Fset.Position(be.OpPos), r.Name(),
					"floating-point " + be.Op.String() + " compares exact bits; use a tolerance, or waive naming the exact sentinel this checks"})
			}
			return true
		})
	}
	return out
}

// isZeroConst reports whether the expression is a compile-time constant
// equal to exactly zero.
func isZeroConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	switch tv.Value.Kind() {
	case constant.Int, constant.Float:
		return constant.Sign(tv.Value) == 0
	}
	return false
}

// isFloatOperand reports whether t is a float32/float64 (through named
// types), or a type parameter whose entire constraint type set has a
// floating-point core — the storage-precision parameter F of the
// generic kernels compares floats whichever way it is instantiated.
func isFloatOperand(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsFloat != 0
	case *types.Interface:
		// A type parameter's underlying type is its constraint interface.
		if _, isTP := t.(*types.TypeParam); !isTP {
			return false
		}
		return allTermsFloat(u)
	}
	return false
}

// allTermsFloat reports whether every term of the interface's type set
// is a floating-point type. An empty or unbounded (no union terms)
// constraint reports false.
func allTermsFloat(iface *types.Interface) bool {
	sawTerm := false
	for i := 0; i < iface.NumEmbeddeds(); i++ {
		switch emb := iface.EmbeddedType(i).(type) {
		case *types.Union:
			for j := 0; j < emb.Len(); j++ {
				sawTerm = true
				b, ok := emb.Term(j).Type().Underlying().(*types.Basic)
				if !ok || b.Info()&types.IsFloat == 0 {
					return false
				}
			}
		default:
			// An embedded named constraint (e.g. kernel.Float inside
			// another interface): recurse through its underlying.
			if inner, ok := emb.Underlying().(*types.Interface); ok {
				if !allTermsFloat(inner) {
					return false
				}
				sawTerm = true
				continue
			}
			b, ok := emb.Underlying().(*types.Basic)
			if !ok || b.Info()&types.IsFloat == 0 {
				return false
			}
			sawTerm = true
		}
	}
	return sawTerm
}
