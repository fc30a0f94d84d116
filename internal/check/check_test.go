package check

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Fixture trees under testdata/ are miniature modules: each is loaded with
// NewLoaderAt so module-relative scoping (internal/serve, cmd/...) works
// exactly as in the real repository. Every `// want "text"` comment marks a
// line that must produce a finding whose message contains the quoted text;
// lines without a want comment must stay silent. Both directions are
// asserted, so each tree is simultaneously the seeded-violation and the
// clean-code proof for its analyzer.

var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

type wantKey struct {
	file string
	line int
}

func collectWants(t *testing.T, root string) map[wantKey][]string {
	t.Helper()
	wants := map[wantKey][]string{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				k := wantKey{path, i + 1}
				wants[k] = append(wants[k], m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return wants
}

func runFixture(t *testing.T, name string) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoaderAt(root, "fix.example/"+name)
	pkgs, err := l.LoadPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s loaded no packages", name)
	}
	findings := RunAll(pkgs)
	wants := collectWants(t, root)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", name)
	}
	for _, f := range findings {
		k := wantKey{f.Pos.Filename, f.Pos.Line}
		matched := -1
		for i, w := range wants[k] {
			if strings.Contains(f.Msg, w) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected finding: %s", f)
			continue
		}
		wants[k] = append(wants[k][:matched], wants[k][matched+1:]...)
		if len(wants[k]) == 0 {
			delete(wants, k)
		}
	}
	for k, subs := range wants {
		for _, w := range subs {
			t.Errorf("missing finding at %s:%d containing %q", k.file, k.line, w)
		}
	}
}

func TestAnalyzerFixtures(t *testing.T) {
	for _, name := range []string{"noalloc", "errflow", "docs"} {
		t.Run(name, func(t *testing.T) { runFixture(t, name) })
	}
}

// TestSelfClean runs the full analyzer suite over this repository: the tree
// must stay finding-free (violations are either fixed or carry reasoned
// waivers). This is the same gate CI applies via cmd/matexcheck.
func TestSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadPatterns([]string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	findings := RunAll(pkgs)
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
