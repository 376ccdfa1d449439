package lint

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// compilerFlags ask the compiler, in every package of the module, for its
// inlining decisions (-m=2, which also prints one "can inline" or "cannot
// inline" line per compiled copy of a function at its declaration), for
// every bounds check it leaves in the code (check_bce), and for its
// assembly listing (-S), one instruction a line with the source line it
// was generated for; an inlined instruction names the inlined function's
// line.
const compilerFlags = "dsmc/...=-m=2 -d=ssa/check_bce/debug=1 -S"

// TestCompilerDecisions holds the compiler to the decisions the step's
// speed rests on, read from its diagnostics and listing over the build of
// the module (both backends at both precisions), which dsmclint cannot
// see:
//
//   - a function that declares //dsmc:inline is inlined at every call
//     site in the module, found through type information, in every
//     compiled copy of the caller: one, or one per shape (the decision
//     lines naming go.shape.…) of a generic caller;
//   - no instruction the listing attributes to the body of a function
//     that declares //dsmc:branchfree, in any compiled copy, inlined or
//     not, is a conditional jump, and at least one instruction is
//     attributed there (else the listing or its attribution has moved
//     and the check holds nothing);
//   - the sort's gather loop keeps one bounds check, the first column's
//     random read through the permutation, in each compiled copy of
//     CellSort.gatherShard: the permutation and the destinations are
//     resliced to the shard and the second column to the first's
//     length, so their checks fall out of the loop.
//
// The build runs offline on the build cache, which replays a cached
// package's diagnostics and listing. The listing is read as it streams
// (about 35 MB for the module); only the lines of branchfree bodies are
// kept.
func TestCompilerDecisions(t *testing.T) {
	root, _ := filepath.Abs(filepath.Join("..", ".."))
	pkgs, err := Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	// The branchfree bodies: the lines strictly inside each body's braces
	// (the declaration's line carries a non-leaf copy's stack check), by
	// file relative to the module root.
	type body struct {
		name     string
		file     string
		from, to int
		insns    int
		jumps    []string
	}
	var bodies []*body
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil && hasFact(fd, "branchfree") {
					lb, rb := p.Fset.Position(fd.Body.Lbrace), p.Fset.Position(fd.Body.Rbrace)
					file, _ := filepath.Rel(root, lb.Filename)
					b := &body{name: p.Path + "." + fd.Name.Name, file: filepath.ToSlash(file), from: lb.Line + 1, to: rb.Line - 1}
					if b.from > b.to {
						b.from, b.to = lb.Line, rb.Line
					}
					bodies = append(bodies, b)
				}
			}
		}
	}

	cmd := exec.Command("go", "build", "-gcflags="+compilerFlags, "./...")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOPROXY=off", "GOFLAGS=")
	pr, pw := io.Pipe()
	cmd.Stdout, cmd.Stderr = pw, pw
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() {
		err := cmd.Wait()
		pw.Close()
		waited <- err
	}()
	// The compiler's "file:line:col: message" lines, by "file:line:col"
	// with the file relative to the module root; the listing's
	// instruction lines, "\t0x… (file:line)\tOP\targs", feed the
	// branchfree bodies.
	diags := map[string][]string{}
	var tail []string // the last lines, for a failed build's report
	sc := bufio.NewScanner(pr)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "\t0x") {
			if file, l, op, ok := listed(line, root); ok {
				for _, b := range bodies {
					if b.file == file && b.from <= l && l <= b.to {
						b.insns++
						if condJump(op) {
							b.jumps = append(b.jumps, strings.TrimSpace(line))
						}
					}
				}
			}
			continue
		}
		if tail = append(tail, line); len(tail) > 40 {
			tail = tail[1:]
		}
		file, rest, _ := strings.Cut(strings.TrimPrefix(line, "./"), ":")
		var l, c int
		if n, _ := fmt.Sscanf(rest, "%d:%d:", &l, &c); n == 2 {
			_, msg, _ := strings.Cut(rest, ": ")
			where := fmt.Sprintf("%s:%d:%d", file, l, c)
			diags[where] = append(diags[where], msg)
		}
	}
	if err := sc.Err(); err != nil {
		cmd.Process.Kill() // the unread pipe would block it forever
		t.Fatal(err)
	}
	if err := <-waited; err != nil {
		t.Fatalf("go build -gcflags=%q ./...: %v\n%s", compilerFlags, err, strings.Join(tail, "\n"))
	}
	for _, b := range bodies {
		switch {
		case b.insns == 0:
			t.Errorf("%s declares //dsmc:branchfree but the listing attributes no instruction to its body (%s:%d-%d); the listing or its line attribution has moved", b.name, b.file, b.from, b.to)
		case len(b.jumps) > 0:
			t.Errorf("%s declares //dsmc:branchfree but %d of the %d instructions attributed to its body are conditional jumps:\n\t%s", b.name, len(b.jumps), b.insns, strings.Join(b.jumps, "\n\t"))
		default:
			t.Logf("%s: %d instructions attributed to its body, no conditional jump", b.name, b.insns)
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

// listed parses one instruction line of a -S listing,
// "\t0x0095 00149 (path/file.go:583)\tUCOMISD\tX1, X0", into its source
// file (relative to root when the listing's path is absolute), line and
// mnemonic; ok is false for a line with no source position.
func listed(line, root string) (file string, l int, op string, ok bool) {
	_, pos, ok := strings.Cut(line, " (")
	if !ok {
		return "", 0, "", false
	}
	pos, rest, ok := strings.Cut(pos, ")\t")
	i := strings.LastIndexByte(pos, ':')
	if !ok || i < 0 {
		return "", 0, "", false
	}
	l, err := strconv.Atoi(pos[i+1:])
	if err != nil {
		return "", 0, "", false
	}
	file = pos[:i]
	if rel, err := filepath.Rel(root, file); err == nil && filepath.IsAbs(file) {
		file = rel
	}
	op, _, _ = strings.Cut(rest, "\t")
	return filepath.ToSlash(file), l, op, true
}

// condJump reports whether an assembler mnemonic is a conditional
// branch: on amd64 every J but JMP; on arm64 the B.cond forms and the
// compare- and test-and-branch instructions.
func condJump(op string) bool {
	switch runtime.GOARCH {
	case "amd64", "386":
		return strings.HasPrefix(op, "J") && op != "JMP"
	case "arm64":
		switch op {
		case "BEQ", "BNE", "BCS", "BHS", "BCC", "BLO", "BMI", "BPL", "BVS", "BVC", "BHI", "BLS", "BGE", "BLT", "BGT", "BLE",
			"CBZ", "CBNZ", "CBZW", "CBNZW", "TBZ", "TBNZ":
			return true
		}
	}
	return false
}
