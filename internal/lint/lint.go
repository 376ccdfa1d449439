// Package lint is the repo's custom analyzer suite: it machine-checks
// the invariants the simulation's determinism story depends on —
// wall-clock and map-order nondeterminism kept out of result-bearing
// packages, random draws flowing only through the counter-based stream
// constructors, allocation-free hot paths, the package layering DAG,
// exact float comparison kept out of physics code, and no exported
// identifier in internal/ that only tests use. The rules run over
// type-checked packages (go/parser + go/types, stdlib only, so offline
// builds keep working) and report diagnostics that fail CI at the line
// that introduced the violation — before a golden hash ever drifts.
//
// Three comment directives steer the suite:
//
//	//dsmclint:allow <rule> <reason>   waive a finding on this or the next line
//	//dsmclint:scope <rule>[=<arg>]    opt a package into a scoped rule
//	//dsmclint:layer <name>            declare the package's layer (layering rule)
//
// A waiver must carry a reason; a waiver that suppresses nothing is
// itself reported (stale waivers rot into false confidence). A waiver in
// the package doc comment covers its rule in the whole package.
// Scope and layer directives exist so fixture packages under testdata —
// and any future package that wants the discipline — can opt in without
// editing the production scope tables in this package.
//
// A function's doc comment declares facts: hotpath-alloc checks
// //dsmc:hotpath, TestCompilerDecisions //dsmc:inline. An unknown fact,
// or one outside a function's doc comment, is a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position, the rule that fired, and a
// human-readable message. The CLI prints them as file:line:col: rule: message.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Rule is one analyzer: it inspects a type-checked package and reports
// raw findings. Waivers are applied by Run, not by rules.
type Rule interface {
	// Name is the rule identifier used in diagnostics, waivers, and
	// scope directives.
	Name() string
	// Doc is a one-line description of the invariant the rule protects.
	Doc() string
	// Check reports the rule's findings in pkg.
	Check(pkg *Package) []Diagnostic
}

// AllRules returns the production rule set.
func AllRules() []Rule {
	return []Rule{
		Determinism{},
		RNGDiscipline{},
		HotpathAlloc{},
		Layering{},
		FloatEq{},
		Exports{},
	}
}

// facts are the //dsmc: facts the suite reads.
var facts = []string{"hotpath", "inline"}

// fact returns the fact a comment declares and whether it is a
// //dsmc: comment at all.
func fact(c *ast.Comment) (string, bool) {
	text, ok := strings.CutPrefix(c.Text, "//dsmc:")
	name, _, _ := strings.Cut(text, " ")
	return name, ok
}

// hasFact reports whether fd's doc comment declares the named fact.
func hasFact(fd *ast.FuncDecl, name string) bool {
	return fd.Doc != nil && slices.ContainsFunc(fd.Doc.List, func(c *ast.Comment) bool {
		n, ok := fact(c)
		return ok && n == name
	})
}

// metaRule names the suite's own hygiene diagnostics (unknown
// directives, stale or reason-less waivers). They are not waivable.
const metaRule = "dsmclint"

// waiver is one parsed //dsmclint:allow comment; pkg marks one in the
// package doc comment, which covers the whole package.
type waiver struct {
	pos       token.Position
	rule      string
	reason    string
	used, pkg bool
}

// directives holds the parsed //dsmclint: comments of one package.
type directives struct {
	// waivers by filename; a waiver at line L suppresses matching
	// diagnostics at lines L and L+1 (trailing or line-above placement).
	// Package waivers are filed under "".
	waivers map[string][]*waiver
	// scopes maps rule name to the directive argument ("" when bare).
	scopes map[string]string
	// layer is the //dsmclint:layer declaration, if any.
	layer string
	// meta collects directive hygiene findings.
	meta []Diagnostic
}

// parseDirectives scans every comment of the package once.
func parseDirectives(pkg *Package, known map[string]bool) *directives {
	d := &directives{waivers: map[string][]*waiver{}, scopes: map[string]string{}}
	for _, f := range pkg.Files {
		docs := map[*ast.CommentGroup]bool{}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Doc != nil {
				docs[fd.Doc] = true
			}
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := pkg.Fset.Position(c.Pos())
				if name, ok := fact(c); ok {
					if !slices.Contains(facts, name) {
						d.meta = append(d.meta, Diagnostic{pos, metaRule, "unknown fact //dsmc:" + name})
					} else if !docs[cg] {
						d.meta = append(d.meta, Diagnostic{pos, metaRule, "//dsmc:" + name + " declares nothing outside a function's doc comment"})
					}
					continue
				}
				text, ok := strings.CutPrefix(c.Text, "//dsmclint:")
				if !ok {
					continue
				}
				verb, rest, _ := strings.Cut(text, " ")
				rest = strings.TrimSpace(rest)
				switch verb {
				case "allow":
					rule, reason, _ := strings.Cut(rest, " ")
					// An inner // starts a comment-on-the-comment (the
					// fixture harness uses this for its want markers);
					// it is not part of the reason.
					if i := strings.Index(reason, "//"); i >= 0 {
						reason = reason[:i]
					}
					reason = strings.TrimSpace(reason)
					if !known[rule] {
						d.meta = append(d.meta, Diagnostic{pos, metaRule,
							fmt.Sprintf("waiver names unknown rule %q", rule)})
						continue
					}
					if reason == "" {
						d.meta = append(d.meta, Diagnostic{pos, metaRule,
							fmt.Sprintf("waiver for %q requires a reason", rule)})
						continue
					}
					w := &waiver{pos: pos, rule: rule, reason: reason, pkg: cg == f.Doc}
					file := pos.Filename
					if w.pkg {
						file = ""
					}
					d.waivers[file] = append(d.waivers[file], w)
				case "scope":
					rule, arg, _ := strings.Cut(rest, "=")
					if !known[rule] {
						d.meta = append(d.meta, Diagnostic{pos, metaRule,
							fmt.Sprintf("scope directive names unknown rule %q", rule)})
						continue
					}
					d.scopes[rule] = arg
				case "layer":
					d.layer = rest
				default:
					d.meta = append(d.meta, Diagnostic{pos, metaRule,
						fmt.Sprintf("unknown directive //dsmclint:%s", verb)})
				}
			}
		}
	}
	return d
}

// scopeArg returns the //dsmclint:scope argument for rule and whether
// the package opted in at all.
func (p *Package) scopeArg(rule string) (string, bool) {
	arg, ok := p.dirs.scopes[rule]
	return arg, ok
}

// underTestdata reports whether the package lives under a testdata
// directory: such packages are fixtures and only see rules they opt
// into with //dsmclint:scope or //dsmclint:layer directives.
func (p *Package) underTestdata() bool {
	return strings.Contains(p.Path+"/", "/testdata/")
}

// Run executes the rules over the packages, applies waivers, appends
// directive- and waiver-hygiene findings, and returns the surviving
// diagnostics sorted by position. An empty result means a clean tree.
func Run(pkgs []*Package, rules []Rule) []Diagnostic {
	// Directives are validated against the full registry, not just the
	// active subset: a -rules invocation must not misreport the other
	// rules' waivers as unknown or stale.
	known := map[string]bool{}
	for _, r := range AllRules() {
		known[r.Name()] = true
	}
	active := map[string]bool{}
	for _, r := range rules {
		known[r.Name()] = true
		active[r.Name()] = true
	}
	// Every package a target's Load read gets its directives first: the
	// exports rule reads the waivers of packages it does not check.
	parsed := map[*module]bool{}
	for _, pkg := range pkgs {
		if !parsed[pkg.mod] {
			for _, p := range pkg.mod.pkgs {
				p.dirs = parseDirectives(p, known)
			}
		}
		parsed[pkg.mod], pkg.mod.exports = true, nil
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		var raw []Diagnostic
		for _, r := range rules {
			raw = append(raw, r.Check(pkg)...)
		}
		for _, diag := range raw {
			if w := pkg.dirs.cover(diag.Rule, diag.Pos); w != nil {
				w.used = true
			} else {
				out = append(out, diag)
			}
		}
		out = append(out, pkg.dirs.meta...)
		for _, ws := range pkg.dirs.waivers {
			for _, w := range ws {
				if !w.used && active[w.rule] {
					where := map[bool]string{false: "on this or the next line", true: "in the package"}[w.pkg]
					out = append(out, Diagnostic{w.pos, metaRule, fmt.Sprintf("stale waiver: no %q finding %s", w.rule, where)})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return out
}

// cover returns the waiver of rule that covers a finding at pos, or nil.
func (d *directives) cover(rule string, pos token.Position) *waiver {
	for _, w := range append(d.waivers[pos.Filename], d.waivers[""]...) {
		if w.rule == rule && (w.pkg || w.pos.Line == pos.Line || w.pos.Line == pos.Line-1) {
			return w
		}
	}
	return nil
}

// ---- shared AST/type helpers used by the rules ----

// calleeFunc resolves a call expression to the declared function or
// method it invokes, or nil (builtins, function-typed variables,
// conversions).
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
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgFunc reports whether fn is the package-level function pkgPath.name.
func isPkgFunc(fn *types.Func, pkgPath, name string) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// isBuiltin reports whether the call invokes the named builtin
// (make, new, append, ...), resolving through the type info so a
// shadowing local identifier does not fool the rules.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// importPath returns the unquoted path of an import spec.
func importPath(spec *ast.ImportSpec) string {
	return strings.Trim(spec.Path.Value, `"`)
}
