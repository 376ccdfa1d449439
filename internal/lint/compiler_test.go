package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// compilerFlags ask the compiler, in every package of the module, for its
// inlining decisions (-m=2, which also prints one "can inline" or "cannot
// inline" line per compiled copy of a function at its declaration) and
// for every bounds check it leaves in the code (check_bce).
const compilerFlags = "dsmc/...=-m=2 -d=ssa/check_bce/debug=1"

// TestCompilerDecisions holds the compiler to the decisions the step's
// speed rests on, read from its diagnostics over the build of the module
// (both backends at both precisions), which dsmclint cannot see:
//
//   - a function that declares //dsmc:inline is inlined at every call
//     site in the module, found through type information, in every
//     compiled copy of the caller: one, or one per shape (the decision
//     lines naming go.shape.…) of a generic caller;
//   - the sort's gather loop keeps one bounds check, the first column's
//     random read through the permutation, in each compiled copy of
//     CellSort.gatherShard: the permutation and the destinations are
//     resliced to the shard and the second column to the first's
//     length, so their checks fall out of the loop.
//
// The build runs offline on the build cache, which replays a cached
// package's diagnostics.
func TestCompilerDecisions(t *testing.T) {
	root, _ := filepath.Abs(filepath.Join("..", ".."))
	pkgs, err := Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "build", "-gcflags="+compilerFlags, "./...")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOFLAGS=")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=%q ./...: %v\n%s", compilerFlags, err, out)
	}
	// The compiler's "file:line:col: message" lines, by "file:line:col"
	// with the file relative to the module root.
	diags := map[string][]string{}
	for _, line := range strings.Split(string(out), "\n") {
		file, rest, _ := strings.Cut(strings.TrimPrefix(line, "./"), ":")
		var l, c int
		if n, _ := fmt.Sscanf(rest, "%d:%d:", &l, &c); n == 2 {
			_, msg, _ := strings.Cut(rest, ": ")
			where := fmt.Sprintf("%s:%d:%d", file, l, c)
			diags[where] = append(diags[where], msg)
		}
	}
	at := func(p *Package, pos token.Pos) string {
		tp := p.Fset.Position(pos)
		file, _ := filepath.Rel(root, tp.Filename)
		return fmt.Sprintf("%s:%d:%d", filepath.ToSlash(file), tp.Line, tp.Column)
	}
	// copies counts a function's compiled copies: the decision lines at a
	// literal's "func" or after a declaration's, less generic wrappers.
	copies := func(p *Package, fn ast.Node) (n int) {
		pos := fn.Pos()
		if _, ok := fn.(*ast.FuncDecl); ok {
			pos += token.Pos(len("func ")) // gofmt's one space
		}
		for _, msg := range diags[at(p, pos)] {
			name, ok := strings.CutPrefix(msg, "can inline ")
			if !ok {
				name, ok = strings.CutPrefix(msg, "cannot inline ")
			}
			name, _, _ = strings.Cut(name, " ")
			if ok && (strings.Contains(name, "[go.shape.") || !strings.Contains(name, "[")) {
				n++
			}
		}
		return n
	}

	sites := map[string]int{} // by //dsmc:inline callee
	var par *Package
	gather := &ast.FuncDecl{Body: &ast.BlockStmt{}}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && hasFact(fd, "inline") {
					sites[objKey(p.Info.Defs[fd.Name])] = 0
				} else if ok && p.Path == "dsmc/internal/par" && fd.Name.Name == "gatherShard" {
					par, gather = p, fd
				}
			}
		}
	}
	for _, p := range pkgs {
		var walk func(caller, body ast.Node)
		walk = func(caller, body ast.Node) {
			ast.Inspect(body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					walk(lit, lit.Body)
					return false
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(p.Info, call)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				key := objKey(fn.Origin())
				if _, ok := sites[key]; !ok {
					return true
				}
				sites[key]++
				// The calls inlined in the callee's body are reported here too.
				where, inlined, want := at(p, call.Lparen), 0, copies(p, caller)
				for _, msg := range diags[where] {
					if callee, ok := strings.CutPrefix(msg, "inlining call to "); ok && (callee == fn.Name() || strings.HasSuffix(callee, "."+fn.Name())) {
						inlined++
					}
				}
				if want == 0 || inlined != want {
					t.Errorf("%s: %s is inlined in %d of the %d compiled copies of its caller", where, displayName(key), inlined, want)
				} else {
					t.Logf("%s: %s inlined in all %d copies", where, displayName(key), want)
				}
				return true
			})
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					walk(fd, fd.Body)
				}
			}
		}
	}
	for key, n := range sites {
		if n == 0 {
			t.Errorf("%s declares //dsmc:inline but nothing in the module calls it", displayName(key))
		}
	}

	// The gather loop: gatherShard's range statement, which opens on the
	// random read in0[s]; check_bce reports at the bracket.
	var loop *ast.RangeStmt
	var read string
	for _, stmt := range gather.Body.List {
		if l, ok := stmt.(*ast.RangeStmt); ok && len(l.Body.List) > 0 {
			if a, ok := l.Body.List[0].(*ast.AssignStmt); ok && len(a.Rhs) == 1 {
				if idx, ok := a.Rhs[0].(*ast.IndexExpr); ok {
					loop, read = l, at(par, idx.Lbrack)
				}
			}
		}
	}
	if loop == nil {
		t.Fatal("no gatherShard in dsmc/internal/par with a range loop opening on an indexed assignment")
	}
	file, _, _ := strings.Cut(read, ":")
	checks, want := 0, copies(par, gather)
	for where, msgs := range diags {
		f, rest, _ := strings.Cut(where, ":")
		var l int
		if fmt.Sscanf(rest, "%d:", &l); f != file || l < par.Fset.Position(loop.Pos()).Line || l > par.Fset.Position(loop.End()).Line {
			continue
		}
		for _, msg := range msgs {
			switch {
			case !strings.HasPrefix(msg, "Found Is"):
			case where != read:
				t.Errorf("%s: %s inside the gather loop; the only check there must be the first random read at %s", where, msg, read)
			default:
				checks++
			}
		}
	}
	if want == 0 || checks != want {
		t.Errorf("%d bounds checks reported at the gather's first random read %s, want one in each of %d compiled copies of gatherShard; the diagnostics or the loop have moved", checks, read, want)
	}
}
