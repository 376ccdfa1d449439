package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
)

// Package is one type-checked target package: the parsed files (with
// comments), the type information the rules query, and the parsed
// //dsmclint: directives.
type Package struct {
	Path  string
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	dirs *directives
	mod  *module
}

// module is every package one Load type-checked: the targets, and as
// context, whose uses the exports rule counts, their importers.
type module struct {
	path    string // the module path, which is the root package's import path
	pkgs    []*Package
	exports map[*Package][]Diagnostic // the exports rule's findings, built on first use
}

// listEntry is the subset of `go list -json` output the loader needs.
type listEntry struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Imports    []string
	Module     *struct{ Path string }
}

// Load lists the patterns with the go tool, type-checks every matched
// package from source against the export data of its dependencies, and
// returns the targets ready for Run. dir is the working directory of
// the go invocations (the module root, or any directory inside it).
//
// Only non-test Go files are loaded: _test.go files (and the testdata
// fixtures, which wildcards never match) are exactly where exact float
// comparison and ad-hoc randomness are legitimate, so the rules never
// see them.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// The plain listing identifies which packages are the targets; one
	// -deps listing of them and of their module yields export data for
	// the full dependency closure (compiled into the build cache as
	// needed — no network), each package after its imports.
	targets, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	mod := &module{}
	args := append([]string{"-deps", "-export"}, patterns...)
	if len(targets) > 0 && targets[0].Module != nil {
		mod.path = targets[0].Module.Path
		args = append(args, mod.path+"/...")
	}
	deps, err := goList(dir, args)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(deps))
	byPath := make(map[string]listEntry, len(deps))
	reach := map[string]bool{}
	for _, t := range targets {
		reach[t.ImportPath] = true
	}
	load := targets
	for _, e := range deps {
		if e.Export != "" {
			exports[e.ImportPath] = e.Export
		}
		byPath[e.ImportPath] = e
		// A package that imports a target, directly or not, loads too.
		if !reach[e.ImportPath] && slices.ContainsFunc(e.Imports, func(p string) bool { return reach[p] }) {
			reach[e.ImportPath], load = true, append(load, e)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(f)
	})

	for _, t := range load {
		e, ok := byPath[t.ImportPath]
		if !ok {
			e = t
		}
		var files []*ast.File
		for _, name := range e.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(e.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, fmt.Errorf("lint: parse %s: %w", name, err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Uses:       map[*ast.Ident]types.Object{},
			Defs:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(e.ImportPath, fset, files, info)
		if err != nil {
			return nil, fmt.Errorf("lint: type-check %s: %w", e.ImportPath, err)
		}
		mod.pkgs = append(mod.pkgs, &Package{
			Path:  e.ImportPath,
			Dir:   e.Dir,
			Fset:  fset,
			Files: files,
			Types: tpkg,
			Info:  info,
			mod:   mod,
		})
	}
	return mod.pkgs[:len(targets)], nil
}

// goList runs `go list -json=...` with the given extra flags and
// patterns and decodes the JSON stream.
func goList(dir string, args []string) ([]listEntry, error) {
	cmd := exec.Command("go", append([]string{"list", "-json=ImportPath,Dir,Export,GoFiles,Imports,Module"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list: %v\n%s", err, stderr.String())
	}
	var entries []listEntry
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var e listEntry
		if err := dec.Decode(&e); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decode go list output: %w", err)
		}
		entries = append(entries, e)
	}
	return entries, nil
}
