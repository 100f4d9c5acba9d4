package tmtest

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hytm"
	"repro/internal/machine"
	"repro/internal/norec"
	"repro/internal/phtm"
	"repro/internal/tm"
	"repro/internal/unbounded"
)

// TestEveryInternalPackageCitesPaperSection enforces the documentation
// contract: every package under internal/ carries a package doc comment
// that cites the paper section it implements ("§" notation), so a reader
// can always navigate from code to the paper and back.
func TestEveryInternalPackageCitesPaperSection(t *testing.T) {
	internalDir := filepath.Join("..", "..", "internal")
	entries, err := os.ReadDir(internalDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(internalDir, e.Name())
		if e.Name() == "testdata" {
			continue
		}
		fset := token.NewFileSet()
		// ParseDir includes _test.go files, which matters: test-only
		// packages (internal/conformance) keep their doc comment in a
		// _test.go file.
		pkgs, err := parser.ParseDir(fset, dir, nil, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		var doc string
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				if f.Doc != nil && len(f.Doc.Text()) > len(doc) {
					doc = f.Doc.Text()
				}
			}
		}
		switch {
		case doc == "":
			t.Errorf("internal/%s has no package doc comment", e.Name())
		case !strings.Contains(doc, "§"):
			t.Errorf("internal/%s package doc does not cite a paper section (want a \"§\" reference)", e.Name())
		}
	}
}

// dispositionRows renders each driver-based system's Algorithm 3 row —
// its own Dispositions table — as the markdown table row DESIGN.md §11
// carries, and fails the test for any abort reason a system leaves
// unclassified.
func dispositionRows(t *testing.T) []string {
	systems := []struct {
		name  string
		on    tm.Dispositions
		limit string
	}{
		{"ufo-hybrid", core.Dispositions, "`core.Policy.FailoverOnNthConflict` (0 = never)"},
		{"hytm", hytm.Dispositions, "`hytm.System.MaxConflictRetries`"},
		{"phtm", phtm.Dispositions, ""},
		{"hybrid-norec", norec.Dispositions, "`norec.Config.MaxHTMRetries`"},
		{"unbounded-htm", unbounded.Dispositions, ""},
	}
	var rows []string
	for _, s := range systems {
		cells := map[tm.Disposition][]string{}
		for r, d := range s.on {
			name := machine.AbortReason(r).String()
			if machine.AbortReason(r) == machine.AbortNone {
				if d == tm.Unclassified {
					continue // reachable only where a Retry request keeps no reason
				}
				name = "Retry request"
			}
			cells[d] = append(cells[d], name)
		}
		cell := func(d tm.Disposition) string {
			if len(cells[d]) == 0 {
				return "—"
			}
			return strings.Join(cells[d], ", ")
		}
		counted := cell(tm.Counted)
		if s.limit != "" {
			counted += "; " + s.limit
		}
		if len(cells[tm.Unclassified]) != 0 {
			t.Errorf("%s leaves abort reasons unclassified: %v", s.name, cells[tm.Unclassified])
		}
		rows = append(rows, "| `"+s.name+"` | "+cell(tm.Fatal)+" | "+counted+" | "+
			cell(tm.Transient)+" | "+cell(tm.Fault)+" |")
	}
	return rows
}

// TestDesignDispositionTableMatchesSystems keeps DESIGN.md's Algorithm 3
// table from drifting: every row is rendered from the system's own table
// and must appear in the document verbatim.
func TestDesignDispositionTableMatchesSystems(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range dispositionRows(t) {
		if !strings.Contains(string(doc), row+"\n") {
			t.Errorf("DESIGN.md is missing (or has a stale copy of) this disposition row:\n%s", row)
		}
	}
}
