package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// Exports reports an exported identifier of an internal/ package (func,
// method, type, alias, const or var) that no non-test code of the module
// uses, cmd/, examples/ and benchmark/ and the targets' importers
// included; what only such identifiers use is reported with them. A type
// uses its methods that make up, by name, all of an interface in the
// program. A kept test-only export carries a waiver saying why, and what
// it uses is used.
type Exports struct{}

// Name implements Rule.
func (Exports) Name() string { return "exports" }

// Doc implements Rule.
func (Exports) Doc() string {
	return "every exported identifier in internal/ has a non-test user in the module, or a waiver saying why it stays"
}

// Check implements Rule.
func (Exports) Check(pkg *Package) []Diagnostic { return pkg.mod.exportFindings()[pkg] }

// eachDecl calls fn with each package-level declaration of p: its names
// and the nodes that hold its uses, which a method's receiver is not.
func eachDecl(p *Package, fn func(ids []*ast.Ident, uses []ast.Node)) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if d, ok := decl.(*ast.FuncDecl); ok {
				uses := []ast.Node{d.Type, d.Body}
				if d.Body == nil {
					uses = uses[:1]
				}
				fn([]*ast.Ident{d.Name}, uses)
				continue
			}
			for _, spec := range decl.(*ast.GenDecl).Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					fn([]*ast.Ident{s.Name}, []ast.Node{s})
				case *ast.ValueSpec:
					fn(s.Names, []ast.Node{s})
				}
			}
		}
	}
}

// exportFindings returns the rule's findings in every package of m,
// waived ones included, so each meets its waiver.
func (m *module) exportFindings() map[*Package][]Diagnostic {
	if m.exports != nil {
		return m.exports
	}
	// refs[k] lists the keys of the declarations that use k ("" for an
	// unexported one). Packages are checked from source against export
	// data, so one identifier is several objects: keys are names.
	refs := map[string][]string{}
	ifaces := map[string]*types.Interface{}
	addIface := func(t types.Type) {
		if i, ok := t.Underlying().(*types.Interface); ok && i.NumMethods() > 0 {
			ifaces[i.String()] = i
		}
	}
	// Every package's interfaces count: error, fmt.Stringer and the like
	// reach methods through calls the module cannot see.
	seen := map[*types.Package]bool{}
	var addScope func(*types.Package)
	addScope = func(pkg *types.Package) {
		if !seen[pkg] {
			seen[pkg] = true
			for _, n := range pkg.Scope().Names() {
				addIface(pkg.Scope().Lookup(n).Type())
			}
			for _, imp := range pkg.Imports() {
				addScope(imp)
			}
		}
	}
	var named []*types.Named
	for _, p := range m.pkgs {
		addScope(p.Types)
		for _, tv := range p.Info.Types {
			addIface(tv.Type)
		}
		for _, n := range p.Types.Scope().Names() {
			if tn, ok := p.Types.Scope().Lookup(n).(*types.TypeName); ok && !tn.IsAlias() && !types.IsInterface(tn.Type()) {
				named = append(named, tn.Type().(*types.Named))
			}
		}
		eachDecl(p, func(ids []*ast.Ident, uses []ast.Node) {
			var from []string
			for _, id := range ids {
				if from = append(from, ""); id.IsExported() {
					from[len(from)-1] = objKey(p.Info.Defs[id])
				}
				// A constant under iota names its type in its block's first line.
				if c, ok := p.Info.Defs[id].(*types.Const); ok {
					if t, ok := c.Type().(*types.Named); ok {
						refs[useKey(t.Obj())] = append(refs[useKey(t.Obj())], from[len(from)-1])
					}
				}
			}
			for _, n := range uses {
				ast.Inspect(n, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if to := useKey(p.Info.Uses[id]); to != "" {
							refs[to] = append(refs[to], from...)
						}
					}
					return true
				})
			}
		})
	}
	for _, t := range named {
		mset := types.NewMethodSet(types.NewPointer(t))
		for _, iface := range ifaces {
			var sel []string
			for i := 0; i < iface.NumMethods(); i++ {
				if m := mset.Lookup(nil, iface.Method(i).Name()); m != nil {
					sel = append(sel, objKey(m.Obj().(*types.Func).Origin()))
				}
			}
			for _, k := range sel {
				if len(sel) == iface.NumMethods() {
					refs[k] = append(refs[k], objKey(t.Obj()))
				}
			}
		}
	}

	// Every unwaived export in scope (internal/, and fixtures that opt in)
	// starts dead; one some live declaration uses comes alive, until none
	// does. A waived one is then a finding (the waiver's) if unused too.
	owner, found := map[string]*Package{}, map[string]Diagnostic{}
	dead, waived := map[string]bool{}, map[string]bool{}
	for _, p := range m.pkgs {
		inScope := strings.HasPrefix(p.Path, "dsmc/internal/")
		if p.underTestdata() {
			_, inScope = p.scopeArg("exports")
		}
		eachDecl(p, func(ids []*ast.Ident, _ []ast.Node) {
			for _, id := range ids {
				if inScope && id.IsExported() {
					key := objKey(p.Info.Defs[id])
					owner[key], found[key] = p, Diagnostic{p.Fset.Position(id.Pos()), "exports",
						fmt.Sprintf("%s is exported but no non-test code uses it: delete it, or waive it with the reason it stays", displayName(key))}
					waived[key] = p.dirs.cover("exports", found[key].Pos) != nil
					dead[key] = !waived[key]
				}
			}
		})
	}
	live := func(key string) bool {
		for _, from := range refs[key] {
			if from != key && !dead[from] {
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for key := range dead {
			if dead[key] && live(key) {
				dead[key], changed = false, true
			}
		}
	}
	m.exports = map[*Package][]Diagnostic{}
	for key, p := range owner {
		if dead[key] || waived[key] && !live(key) {
			m.exports[p] = append(m.exports[p], found[key])
		}
	}
	return m.exports
}

// useKey returns the key of the package-level object or method a use
// resolves to, or "" for anything else (locals, fields, the universe).
func useKey(obj types.Object) string {
	switch obj := obj.(type) {
	case *types.Func:
		if obj.Pkg() != nil {
			return objKey(obj.Origin())
		}
	case *types.TypeName, *types.Const, *types.Var:
		if obj.Pkg() != nil && obj.Pkg().Scope().Lookup(obj.Name()) == obj {
			return objKey(obj)
		}
	}
	return ""
}

// objKey names a package-level object or method uniquely in the module:
// its package path, a space, and "pkg.Name" or "pkg.Type.Method".
func objKey(obj types.Object) string {
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok && fn.Signature().Recv() != nil {
		rt := fn.Signature().Recv().Type()
		if ptr, ok := rt.(*types.Pointer); ok {
			rt = ptr.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	return obj.Pkg().Path() + " " + obj.Pkg().Name() + "." + name
}

// displayName drops the package path from a key.
func displayName(key string) string {
	_, name, _ := strings.Cut(key, " ")
	return name
}
