package tmtest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hytm"
	"repro/internal/machine"
	"repro/internal/norec"
	"repro/internal/phtm"
	"repro/internal/sle"
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
		{"hytm", hytm.Dispositions, "`hytm.MaxConflictRetries`"},
		{"phtm", phtm.Dispositions, ""},
		{"hybrid-norec", norec.Dispositions, "`norec.MaxHTMRetries`"},
		{"unbounded-htm", unbounded.Dispositions, ""},
		{"sle", sle.Dispositions, "`sle.Attempts`"},
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
		rows = append(rows, "| `"+s.name+"` | "+cell(tm.Fatal)+" | "+counted+" | "+cell(tm.Transient)+" |")
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

// configuredPackages are the packages whose configuration DESIGN.md §23
// and §26 count: a cost there is a constant, not a field.
var configuredPackages = []string{
	"machine", "ustm", "tl2", "norec", "core", "hytm", "phtm", "unbounded", "seq", "sle", "stamp", "cm",
}

// inspectPackage walks the non-test source of internal/<pkg>.
func inspectPackage(t *testing.T, pkg string, visit func(ast.Node) bool) {
	t.Helper()
	notTest := func(fi os.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	pkgs, err := parser.ParseDir(token.NewFileSet(), filepath.Join("..", pkg), notTest, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		ast.Inspect(p, visit)
	}
}

// TestNoExportedCyclesFields keeps the §23 census from regrowing: a cycle
// cost that one value serves everywhere is a named constant beside the
// code that charges it, so no struct in these packages may carry an
// exported …Cycles field for a caller to set. (A Stats struct is output:
// cycles a run spent, not cycles it is told to charge.)
func TestNoExportedCyclesFields(t *testing.T) {
	for _, pkg := range configuredPackages {
		inspectPackage(t, pkg, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok || ts.Name.Name == "Stats" {
				return true
			}
			for _, f := range st.Fields.List {
				for _, name := range f.Names {
					if name.IsExported() && strings.HasSuffix(name.Name, "Cycles") {
						t.Errorf("%s.%s.%s is a settable cost: make it a constant (DESIGN.md §23), or show the second value",
							pkg, ts.Name.Name, name.Name)
					}
				}
			}
			return true
		})
	}
}

// TestNoBareCycleLiterals keeps every simulated cost named: no Elapse in
// the non-test Go under internal/ or cmd/ takes an integer literal, so
// each cost is a constant the cost sheet can quote (DESIGN.md §4).
// examples/ are exempt: their waits stage a scenario, not a cost.
func TestNoBareCycleLiterals(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join("..", "..", dir), func(path string, e os.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case e.IsDir() && e.Name() == "testdata":
				return filepath.SkipDir
			case e.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Elapse" {
					return true
				}
				if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.INT {
					t.Errorf("%s: Elapse(%s): name the cost as a …Cycles constant", fset.Position(call.Pos()), lit.Value)
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

var costSheetRow = regexp.MustCompile("(?m)^\\| `([a-z0-9]+\\.[A-Za-z0-9]+Cycles)` \\| ([0-9,]+) \\|")

// TestDesignCostSheetMatchesConstants holds DESIGN.md's cost sheets to
// the code in both directions: every exported …Cycles constant of the
// machine, of a TM system, of cm and of tm has a row giving its value,
// and every row names such a constant.
func TestDesignCostSheetMatchesConstants(t *testing.T) {
	consts := map[string]string{}
	for _, pkg := range append([]string{"tm"}, configuredPackages...) {
		inspectPackage(t, pkg, func(n ast.Node) bool {
			gd, ok := n.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				return true
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if !name.IsExported() || !strings.HasSuffix(name.Name, "Cycles") {
						continue
					}
					var lit *ast.BasicLit
					if i < len(vs.Values) {
						lit, _ = vs.Values[i].(*ast.BasicLit)
					}
					if lit != nil && lit.Kind == token.STRING {
						continue // a metric name (machine.MetricCycles), not a cost
					}
					if lit == nil || lit.Kind != token.INT {
						t.Errorf("%s.%s: a cost is an integer literal, so the cost sheet can quote it", pkg, name.Name)
						continue
					}
					consts[pkg+"."+name.Name] = strings.ReplaceAll(lit.Value, "_", "")
				}
			}
			return false
		})
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for _, m := range costSheetRow.FindAllStringSubmatch(string(doc), -1) {
		rows[m[1]] = strings.ReplaceAll(m[2], ",", "")
	}
	for name, v := range consts {
		switch got, ok := rows[name]; {
		case !ok:
			t.Errorf("DESIGN.md's cost sheet has no row for %s (= %s)", name, v)
		case got != v:
			t.Errorf("DESIGN.md's cost sheet says %s = %s, the code says %s", name, got, v)
		}
	}
	for name := range rows {
		if _, ok := consts[name]; !ok {
			t.Errorf("DESIGN.md's cost sheet lists %s, which is not an exported cost constant", name)
		}
	}
}
