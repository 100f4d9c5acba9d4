package harness

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"

	"repro/internal/machine"
)

// TestSystemRegistryDrift fails when a SystemKind constant or a Build
// switch case is missing from AllSystems (or vice versa), so a newly
// added system cannot silently skip the conformance, race, litmus, and
// collider coverage that iterates AllSystems. It reads harness.go's own
// source: the constant block and the Build switch are the two places a
// new system is declared, and both must agree with the registry.
func TestSystemRegistryDrift(t *testing.T) {
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "harness.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}

	// 1. Every `X SystemKind = "name"` constant.
	consts := map[string]string{} // ident → kind string
	for _, d := range file.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			id, ok := vs.Type.(*ast.Ident)
			if !ok || id.Name != "SystemKind" {
				continue
			}
			for i, name := range vs.Names {
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					t.Fatalf("const %s: value is not a string literal", name.Name)
				}
				s, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				consts[name.Name] = s
			}
		}
	}
	if len(consts) == 0 {
		t.Fatal("no SystemKind constants found in harness.go")
	}

	// 2. Every ident named in Build's switch cases.
	cases := map[string]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		fd, ok := n.(*ast.FuncDecl)
		if !ok || fd.Name.Name != "Build" {
			return true
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			cc, ok := n.(*ast.CaseClause)
			if !ok {
				return true
			}
			for _, expr := range cc.List {
				if id, ok := expr.(*ast.Ident); ok {
					cases[id.Name] = true
				}
			}
			return true
		})
		return false
	})
	if len(cases) == 0 {
		t.Fatal("no case clauses found in Build")
	}

	all := map[string]bool{}
	for _, k := range AllSystems {
		all[string(k)] = true
	}

	// Every constant must be registered and buildable; every registry
	// entry and Build case must trace back to a constant.
	for ident, kind := range consts {
		if !all[kind] {
			t.Errorf("SystemKind constant %s (%q) is missing from AllSystems", ident, kind)
		}
		if !cases[ident] {
			t.Errorf("SystemKind constant %s (%q) has no case in Build", ident, kind)
		}
	}
	byValue := map[string]bool{}
	for _, kind := range consts {
		byValue[kind] = true
	}
	for kind := range all {
		if !byValue[kind] {
			t.Errorf("AllSystems entry %q has no SystemKind constant", kind)
		}
	}
	for ident := range cases {
		if _, ok := consts[ident]; !ok {
			t.Errorf("Build case %s is not a SystemKind constant", ident)
		}
	}
	if len(consts) != len(all) {
		t.Errorf("harness.go declares %d SystemKind constants, AllSystems lists %d", len(consts), len(all))
	}

	// Figure5Systems must be a subset of the registry.
	for _, k := range Figure5Systems {
		if !all[string(k)] {
			t.Errorf("Figure5Systems entry %q is missing from AllSystems", k)
		}
	}

	// 3. Build smoke: every registered kind constructs without panicking
	// and reports a matching name (ParseSystem must round-trip it too).
	opt := DefaultOptions()
	opt.Params.MemBytes = 1 << 20
	for _, kind := range AllSystems {
		k, err := ParseSystem(string(kind))
		if err != nil {
			t.Errorf("ParseSystem(%q): %v", kind, err)
		}
		if k != kind {
			t.Errorf("ParseSystem(%q) = %q", kind, k)
		}
		params := opt.Params
		params.Procs = 1
		m := machine.New(params)
		sys := Build(kind, m, opt)
		if sys == nil {
			t.Fatalf("Build(%q) returned nil", kind)
		}
	}
	if _, err := ParseSystem("no-such-system"); err == nil {
		t.Error("ParseSystem accepted an unknown name")
	}
}
