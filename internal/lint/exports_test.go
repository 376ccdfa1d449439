package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports are the exported functions and methods in internal/
// that only tests call and that stay: each is an oracle, a diagnostic
// or physics the goldens pin. A key is "pkg.Func", "pkg.Type.Method" or
// a package path, which covers every export of the package.
var testOnlyExports = map[string]string{
	"dsmc/internal/stats":               "the statistical oracles (moments, KS and chi-square tests, correlations) the physics property tests judge by",
	"golden.HashSim2D":                  "the state hash every 2D golden test pins",
	"golden.HashSim3D":                  "the state hash every 3D golden test pins",
	"sample.AddFlow":                    "the particle-order sampling oracle AddFlowCellMajor is checked against",
	"collide.Invariants":                "the pair's momentum and energy, the conservation check of every collision test",
	"particle.Store.TotalEnergy":        "energy conservation diagnostic",
	"engine.Engine.TotalEnergy":         "energy conservation diagnostic",
	"engine.Engine.TotalVibEnergy":      "vibrational energy diagnostic",
	"engine.Engine.CellStart":           "the sort's cell spans, which the cell-major layout tests hold the store to",
	"cmsim.Sim.TotalEnergy":             "energy conservation diagnostic of the CM backend",
	"sim3.SimOf.TotalEnergyAndMomentum": "energy and momentum conservation diagnostic of the 3D tube",
	"sim3.SimOf.PostShockDensity":       "the shock tube's measured density rise, checked against the piston-shock theory",
	"baseline.EquilibriumEnsemble":      "initial state of the baseline relaxation references",
	"baseline.AnisotropicEnsemble":      "initial state of the relaxation-to-isotropy reference",
	"baseline.RelaxFixedPairing":        "the ablation of re-randomised pairing the relaxation tests compare against",
	"molec.PowerLaw":                    "a molecular model the goldens pin",
	"molec.VHS":                         "a molecular model the goldens pin",
}

// TestExportsHaveCallers fails on an exported function or method in
// internal/ that no non-test code of the module calls: cmd/, examples/
// and benchmark/ count as callers, tests do not (Load reads non-test
// files only), and neither does another such function, so a function
// only dead code calls is reported with it. A method also counts as
// called when its type, or a type embedding it, has every method of an
// interface in the program that declares the method's name: a call may
// go through that interface.
func TestExportsHaveCallers(t *testing.T) {
	pkgs, err := Load(filepath.Join("..", ".."), "./...")
	if err != nil {
		t.Fatal(err)
	}
	// refs[f] holds the declarations that refer to function f: the key of
	// an exported function or method, or "" for any other declaration.
	// Each package is checked from source against its dependencies'
	// export data, so one function is a different object in its own
	// package and in its callers: keys are names.
	refs := map[string]map[string]bool{}
	ifaces := interfaceSet{}
	seen := map[*types.Package]bool{}
	var named []types.Type
	for _, p := range pkgs {
		for _, tv := range p.Info.Types {
			ifaces.add(tv.Type)
		}
		for _, obj := range p.Info.Defs {
			if obj == nil {
				continue
			}
			ifaces.add(obj.Type())
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				named = append(named, tn.Type())
			}
		}
		ifaces.addScopes(seen, p.Types)
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				from := ""
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.IsExported() {
					from = funcKey(p.Info.Defs[fd.Name].(*types.Func))
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					if fn, ok := p.Info.Uses[id].(*types.Func); ok && fn.Pkg() != nil {
						to := funcKey(fn.Origin())
						if refs[to] == nil {
							refs[to] = map[string]bool{}
						}
						refs[to][from] = true
					}
					return true
				})
			}
		}
	}

	viaInterface := ifaces.reachable(named)

	// Start from every candidate uncalled and keep the ones that some
	// declaration outside the set refers to, until none changes.
	uncalled := map[string]bool{}
	listed := map[string]bool{} // testOnlyExports keys that name something
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, "dsmc/internal/") {
			continue
		}
		if _, ok := testOnlyExports[p.Path]; ok {
			listed[p.Path] = true
			continue
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.Info.Defs[fd.Name].(*types.Func)
				key := funcKey(fn)
				if _, ok := testOnlyExports[displayName(key)]; ok {
					listed[displayName(key)] = true
				} else if !viaInterface[key] {
					uncalled[key] = true
				}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for key := range uncalled {
			for from := range refs[key] {
				if !uncalled[from] {
					delete(uncalled, key)
					changed = true
					break
				}
			}
		}
	}

	for key := range testOnlyExports {
		if !listed[key] {
			t.Errorf("testOnlyExports lists %s, which names no exported function or package in internal/", key)
		}
	}
	var names []string
	for key := range uncalled {
		names = append(names, displayName(key))
	}
	sort.Strings(names)
	for _, name := range names {
		t.Errorf("%s is exported but no non-test code calls it: delete it, or add it to testOnlyExports with the reason it stays", name)
	}
}

// funcKey names fn uniquely in the module: its package path, a space,
// and "pkg.Func" or "pkg.Type.Method".
func funcKey(fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		rt := recv.Type()
		if ptr, ok := rt.(*types.Pointer); ok {
			rt = ptr.Elem()
		}
		if named, ok := rt.(*types.Named); ok {
			name = named.Obj().Name() + "." + name
		}
	}
	return fn.Pkg().Path() + " " + fn.Pkg().Name() + "." + name
}

// displayName drops the package path from a funcKey.
func displayName(key string) string {
	_, name, _ := strings.Cut(key, " ")
	return name
}

// interfaceSet holds the method names of interface types, one set per
// distinct interface.
type interfaceSet map[string]map[string]bool

// add records typ when it is an interface with methods.
func (s interfaceSet) add(typ types.Type) {
	if typ == nil {
		return
	}
	iface, ok := typ.Underlying().(*types.Interface)
	if !ok || iface.NumMethods() == 0 {
		return
	}
	names := map[string]bool{}
	var sig []string
	for i := 0; i < iface.NumMethods(); i++ {
		names[iface.Method(i).Name()] = true
		sig = append(sig, iface.Method(i).Name())
	}
	sort.Strings(sig)
	s[strings.Join(sig, " ")] = names
}

// addScopes records every interface type declared at package level in
// pkg and in everything it imports: the universe's error, fmt.Stringer
// and the like reach a method through calls the module cannot see.
func (s interfaceSet) addScopes(seen map[*types.Package]bool, pkg *types.Package) {
	if seen[pkg] {
		return
	}
	seen[pkg] = true
	scope := pkg.Scope()
	for _, n := range scope.Names() {
		if tn, ok := scope.Lookup(n).(*types.TypeName); ok {
			s.add(tn.Type())
		}
	}
	for _, imp := range pkg.Imports() {
		s.addScopes(seen, imp)
	}
}

// reachable returns the keys of the methods a call through one of the
// interfaces may reach: each method of an interface, on every type
// among named that has, by name, all of that interface's methods. A
// method promoted from an embedded type counts for the embedded type.
func (s interfaceSet) reachable(named []types.Type) map[string]bool {
	keys := map[string]bool{}
	for _, typ := range named {
		if types.IsInterface(typ) {
			continue
		}
		mset := types.NewMethodSet(types.NewPointer(typ))
		for _, names := range s {
			var sel []*types.Func
			for n := range names {
				if m := mset.Lookup(nil, n); m != nil {
					sel = append(sel, m.Obj().(*types.Func))
				}
			}
			if len(sel) < len(names) {
				continue
			}
			for _, fn := range sel {
				keys[funcKey(fn.Origin())] = true
			}
		}
	}
	return keys
}
