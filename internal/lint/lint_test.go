package lint

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// wantRe extracts expected-diagnostic annotations from fixture source
// lines: `want "<regexp>"`. The regexp is matched against the
// diagnostic's "rule: message" string at the same file and line.
var wantRe = regexp.MustCompile(`want "([^"]+)"`)

// wantKey addresses one fixture source line.
type wantKey struct {
	file string
	line int
}

// collectWants scans every .go file under a fixture directory for want
// annotations. Lines are addressed by file base name, so the files of a
// fixture must have distinct names.
func collectWants(t *testing.T, dir string) map[wantKey][]string {
	t.Helper()
	wants := map[wantKey][]string{}
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || filepath.Ext(path) != ".go" {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
				k := wantKey{e.Name(), line}
				wants[k] = append(wants[k], m[1])
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatalf("scan fixture: %v", err)
	}
	return wants
}

// TestFixtures runs the full rule set over each fixture package and
// checks the diagnostics against the want annotations: every finding
// must match a want on its line, and every want must be hit. The mod
// fixture is a module of its own named dsmc: its packages are no
// fixtures to the suite, so they meet the rules as the tree's packages
// do, and it holds the layering findings only such packages can reach.
func TestFixtures(t *testing.T) {
	fixtures, err := filepath.Glob(filepath.Join("testdata", "src", "*"))
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no fixtures found: %v", err)
	}
	for _, dir := range fixtures {
		t.Run(filepath.Base(dir), func(t *testing.T) {
			checkFixture(t, dir, ".", "./"+filepath.ToSlash(dir))
		})
	}
	mod := filepath.Join("testdata", "mod")
	t.Run("mod", func(t *testing.T) { checkFixture(t, mod, mod, "./...") })
}

// checkFixture lints pattern from the module at root and matches the
// findings against the want annotations under dir.
func checkFixture(t *testing.T, dir, root, pattern string) {
	wants := collectWants(t, dir)
	pkgs, err := Load(root, pattern)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags := Run(pkgs, AllRules())

	// Each want may be satisfied once; count per (file, line, pattern).
	unmatched := map[wantKey][]string{}
	for k, ps := range wants {
		unmatched[k] = append([]string(nil), ps...)
	}
	for _, d := range diags {
		k := wantKey{filepath.Base(d.Pos.Filename), d.Pos.Line}
		got := d.Rule + ": " + d.Message
		matched := false
		rest := unmatched[k][:0]
		for _, p := range unmatched[k] {
			if !matched && regexp.MustCompile(p).MatchString(got) {
				matched = true
				continue
			}
			rest = append(rest, p)
		}
		unmatched[k] = rest
		if !matched {
			t.Errorf("unexpected diagnostic at %s:%d: %s", k.file, k.line, got)
		}
	}
	for k, ps := range unmatched {
		for _, p := range ps {
			t.Errorf("missing diagnostic at %s:%d: want match for %q", k.file, k.line, p)
		}
	}
}

// TestTreeClean asserts the production tree itself lints clean — the
// same check the CI lint job runs via cmd/dsmclint. Skipped in -short
// mode (it type-checks the whole module).
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module lint covered by the CI lint job")
	}
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	diags := Run(pkgs, AllRules())
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestRuleNamesUnique guards the waiver/scope grammar: rule names must
// be distinct and must not collide with the meta rule.
func TestRuleNamesUnique(t *testing.T) {
	seen := map[string]bool{metaRule: true}
	for _, r := range AllRules() {
		if seen[r.Name()] {
			t.Errorf("duplicate rule name %q", r.Name())
		}
		seen[r.Name()] = true
		if r.Doc() == "" {
			t.Errorf("rule %q has no doc", r.Name())
		}
	}
}
