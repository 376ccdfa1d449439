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

// instantiations is the number of compiled copies of the generic step in
// the build of internal/run: sim's and sim3's at float64, and run's
// open2D and open3D at float32. The compiler reports a decision inside
// generic code once per copy.
const instantiations = 4

// TestCompilerDecisions pins four decisions of the compiler that the
// step's speed rests on, read from its diagnostics over the build of
// internal/run (both backends at both precisions):
//
//   - collide.Exchange is inlined at each of its 5 call sites in
//     kernel/exchange.go, the unrolled five-component exchange, in
//     every instantiation;
//   - rng.RandomPerm5 is inlined at each of its 4 callers, three in the
//     engine's collide passes (in every instantiation) and one in the
//     reservoir;
//   - rng.Key.At, the one splitmix round that turns a phase's stream
//     key into a cell's (or particle's) stream, is inlined at every
//     per-lane call site: the engine's 5 (two in the split select, two
//     in the split collide, one in the fused pass) and the sort's
//     shuffle in every instantiation, and the wedge's diffuse-wall draw
//     in each of the 3 copies of the 2D domain (sim's float64, run's
//     float64 and float32);
//   - the sort's gather loop keeps one bounds check, the first column's
//     random read through the permutation, in each instantiation: the
//     permutation and the destinations are resliced to the shard and
//     the second column to the first's length, so their checks fall out
//     of the loop.
//
// dsmclint reads the source only and sees none of this. The build runs
// offline on the build cache, which replays a cached package's
// diagnostics.
func TestCompilerDecisions(t *testing.T) {
	root := filepath.Join("..", "..")
	cmd := exec.Command("go", "build", "-gcflags="+compilerFlags, "./internal/run")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOFLAGS=")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=%q ./internal/run: %v\n%s", compilerFlags, err, out)
	}
	diags := parseDiagnostics(out)

	exchange := callSites(t, root, "internal/kernel/exchange.go", "collide", "Exchange")
	checkInlined(t, diags, "collide.Exchange", exchange, 5, instantiations)

	checkInlined(t, diags, "rng.RandomPerm5", callSites(t, root, "internal/engine/engine.go", "rng", "RandomPerm5"), 3, instantiations)
	checkInlined(t, diags, "rng.RandomPerm5", callSites(t, root, "internal/particle/reservoir.go", "rng", "RandomPerm5"), 1, 1)

	checkInlined(t, diags, "rng.Key.At", methodCallSites(t, root, "internal/engine/engine.go", "At"), 5, instantiations)
	checkInlined(t, diags, "rng.Key.At", methodCallSites(t, root, "internal/par/cellsort.go", "At"), 1, instantiations)
	checkInlined(t, diags, "rng.Key.At", methodCallSites(t, root, "internal/sim/sim.go", "At"), 1, 3)

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
	if checks != instantiations {
		t.Errorf("%d bounds checks reported at the gather's first random read %s:%s, want one in each of %d instantiations; the diagnostics or the loop have moved", checks, cellsort, read, instantiations)
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
	return selectorCallSites(t, root, file, func(sel *ast.SelectorExpr) bool {
		id, ok := sel.X.(*ast.Ident)
		return ok && id.Name == pkg && sel.Sel.Name == name
	})
}

// methodCallSites returns the positions of every method call x.name(...)
// in one file, whatever x is; the callers pin the count, so a new call of
// another type's method of that name shows up as a count mismatch.
func methodCallSites(t *testing.T, root, file, name string) []string {
	return selectorCallSites(t, root, file, func(sel *ast.SelectorExpr) bool {
		return sel.Sel.Name == name
	})
}

// selectorCallSites returns the positions of the calls through a
// selector that match accepts, in one file.
func selectorCallSites(t *testing.T, root, file string, match func(*ast.SelectorExpr) bool) []string {
	t.Helper()
	f := parseFile(t, root, file)
	var sites []string
	ast.Inspect(f.file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && match(sel) {
			p := f.fset.Position(call.Lparen)
			sites = append(sites, file+":"+fmt.Sprintf("%d:%d", p.Line, p.Column))
		}
		return true
	})
	return sites
}

// checkInlined asserts that the call sites number want and that -m
// reported an inlining of callee at every one of them once per compiled
// copy of the caller, copies times in all.
func checkInlined(t *testing.T, diags map[string][]diagnostic, callee string, sites []string, want, copies int) {
	t.Helper()
	if len(sites) != want {
		t.Errorf("%s has %d call sites %v, want %d", callee, len(sites), sites, want)
	}
	for _, site := range sites {
		file, pos, _ := strings.Cut(site, ":")
		inlined := 0
		for _, d := range diags[file] {
			if d.pos() == pos && d.msg == "inlining call to "+callee {
				inlined++
			}
		}
		if inlined != copies {
			t.Errorf("%s is inlined at %s in %d compiled copies, want %d", callee, site, inlined, copies)
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
