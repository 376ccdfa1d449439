package lint

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// compilerFlags ask the compiler for its inlining decisions (-m) and for
// every bounds check it leaves in the code (check_bce), in the module's
// own packages only.
const compilerFlags = "dsmc/internal/...=-m -d=ssa/check_bce/debug=1"

// TestCompilerDecisions pins three decisions of the compiler that the
// step's speed rests on, read from its diagnostics over the build of
// internal/sim (the engine and everything it steps):
//
//   - collide.Exchange is inlined at each of its 5 call sites in
//     kernel/exchange.go, the unrolled five-component exchange;
//   - rng.RandomPerm5 is inlined at each of its 4 callers in the build,
//     three in the engine's collide passes and one in the reservoir;
//   - the sort's gather loop keeps one bounds check, the first column's
//     random read through the permutation, in each compiled
//     instantiation: the permutation and the destinations are resliced
//     to the shard and the second column to the first's length, so
//     their checks fall out of the loop.
//
// dsmclint reads the source only and sees none of this. The build runs
// offline on the build cache, which replays a cached package's
// diagnostics.
func TestCompilerDecisions(t *testing.T) {
	root := filepath.Join("..", "..")
	cmd := exec.Command("go", "build", "-gcflags="+compilerFlags, "./internal/sim")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOFLAGS=")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=%q ./internal/sim: %v\n%s", compilerFlags, err, out)
	}
	diags := parseDiagnostics(out)

	exchange := callSites(t, root, "internal/kernel/exchange.go", "collide", "Exchange")
	checkInlined(t, diags, "collide.Exchange", exchange, 5)

	perm := append(callSites(t, root, "internal/engine/engine.go", "rng", "RandomPerm5"),
		callSites(t, root, "internal/particle/reservoir.go", "rng", "RandomPerm5")...)
	checkInlined(t, diags, "rng.RandomPerm5", perm, 4)

	const cellsort = "internal/par/cellsort.go"
	from, to, read := gatherLoop(t, root, cellsort)
	checks := 0
	for _, d := range diags[cellsort] {
		if d.line < from || d.line > to || !strings.HasPrefix(d.msg, "Found Is") {
			continue
		}
		if d.pos() != read {
			t.Errorf("%s:%s: %s inside the gather loop; the only check there must be the first random read at %s", cellsort, d.pos(), d.msg, read)
			continue
		}
		checks++
	}
	if checks == 0 {
		t.Errorf("no bounds check reported at the gather's first random read %s:%s; the diagnostics or the loop have moved", cellsort, read)
	}
}

// diagnostic is one compiler message at a source position.
type diagnostic struct {
	line, col int
	msg       string
}

func (d diagnostic) pos() string { return fmt.Sprintf("%d:%d", d.line, d.col) }

// parseDiagnostics indexes the compiler's "file:line:col: message" lines
// by slash-separated file path relative to the module root.
func parseDiagnostics(out []byte) map[string][]diagnostic {
	diags := map[string][]diagnostic{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		file, rest, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		var d diagnostic
		if n, _ := fmt.Sscanf(rest, "%d:%d:", &d.line, &d.col); n != 2 {
			continue
		}
		_, d.msg, _ = strings.Cut(rest, ": ")
		file = strings.TrimPrefix(filepath.ToSlash(file), "./")
		diags[file] = append(diags[file], d)
	}
	return diags
}

// callSites returns the positions ("file:line:col" of the call's left
// parenthesis, where -m reports an inlining) of every call pkg.name(...)
// in one file.
func callSites(t *testing.T, root, file, pkg, name string) []string {
	t.Helper()
	f := parseFile(t, root, file)
	var sites []string
	ast.Inspect(f.file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == name {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == pkg {
				p := f.fset.Position(call.Lparen)
				sites = append(sites, file+":"+fmt.Sprintf("%d:%d", p.Line, p.Column))
			}
		}
		return true
	})
	return sites
}

// checkInlined asserts that the call sites number want and that -m
// reported an inlining of callee at every one of them.
func checkInlined(t *testing.T, diags map[string][]diagnostic, callee string, sites []string, want int) {
	t.Helper()
	if len(sites) != want {
		t.Errorf("%s has %d call sites %v, want %d", callee, len(sites), sites, want)
	}
	for _, site := range sites {
		file, pos, _ := strings.Cut(site, ":")
		inlined := false
		for _, d := range diags[file] {
			if d.pos() == pos && d.msg == "inlining call to "+callee {
				inlined = true
			}
		}
		if !inlined {
			t.Errorf("%s is not inlined at %s", callee, site)
		}
	}
}

// gatherLoop finds CellSort.gatherShard's range loop and returns the
// lines it spans and the position of the random read in its first
// statement, in0[s] (the index expression's bracket, where check_bce
// reports).
func gatherLoop(t *testing.T, root, file string) (from, to int, read string) {
	t.Helper()
	f := parseFile(t, root, file)
	for _, decl := range f.file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "gatherShard" {
			continue
		}
		for _, stmt := range fn.Body.List {
			loop, ok := stmt.(*ast.RangeStmt)
			if !ok || len(loop.Body.List) == 0 {
				continue
			}
			assign, ok := loop.Body.List[0].(*ast.AssignStmt)
			if !ok || len(assign.Rhs) != 1 {
				continue
			}
			idx, ok := assign.Rhs[0].(*ast.IndexExpr)
			if !ok {
				continue
			}
			p := f.fset.Position(idx.Lbrack)
			return f.fset.Position(loop.Pos()).Line, f.fset.Position(loop.End()).Line,
				fmt.Sprintf("%d:%d", p.Line, p.Column)
		}
	}
	t.Fatalf("%s: no gatherShard with a range loop opening on an indexed assignment", file)
	return 0, 0, ""
}

type parsedFile struct {
	fset *token.FileSet
	file *ast.File
}

func parseFile(t *testing.T, root, file string) parsedFile {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filepath.Join(root, filepath.FromSlash(file)), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return parsedFile{fset, f}
}
