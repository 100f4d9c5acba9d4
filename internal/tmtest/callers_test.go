package tmtest

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// uncalledAllowed are the exported names that only tests call, each kept
// for the reason given. An unexported declaration has no entry: a helper
// only tests use belongs in a _test.go file.
var uncalledAllowed = map[string]string{
	"machine.Machine.CheckConsistency": "the checker the stress tests compare against",
	"machine.Proc.L1":                  "state that tests in other packages observe",
	"machine.Proc.UFOEnabled":          "state that tests in other packages observe",
	"machine.AllKinds":                 "the every-kind set an all-kinds storm trace subscribes to (DESIGN.md §24)",
	"oltp.Workload.RecordAddr":         "the hot-line attribution test finds the key-1 record by it",
	"litmus.DecodeProgram":             "the FuzzLitmus codec, the one program generator, which only the fuzz target and its corpus test call (DESIGN.md §13, §34)",
	"litmus.DecodeSeed":                "the FuzzLitmus codec, the one program generator, which only the fuzz target and its corpus test call (DESIGN.md §13, §34)",
}

// TestEveryDeclarationHasACaller keeps the tree free of code that nothing
// runs (DESIGN.md §30): every function, method, type, const and var
// declared in a non-test file under internal/ or cmd/, and every
// unexported field of its structs, must be referenced from a non-test
// file of the module (benchmark/ and examples/ count). An exported name
// may instead be in uncalledAllowed.
//
// A reference counts only if the declaration it sits in is itself live,
// so a type that only an uncalled method returns is uncalled too, and a
// field that is only ever assigned is dead and does not keep its type
// alive. A method is called when its type implements an interface it is
// called through: one of the module's, or any standard-library interface
// (String, Error, MarshalJSON, …), since the library makes those calls.
func TestEveryDeclarationHasACaller(t *testing.T) {
	c := newCensus(t, filepath.Join("..", ".."))
	for _, d := range c.dead() {
		t.Errorf("%s has no caller outside tests: delete it, call it, or allow it with a reason", d)
	}
	for key := range uncalledAllowed {
		if obj, ok := c.byKey[key]; !ok {
			t.Errorf("uncalledAllowed lists %s, which is not declared", key)
		} else if c.called(obj) {
			t.Errorf("uncalledAllowed lists %s, which has a caller now: drop it from the list", key)
		}
	}
}

// TestCensusReportsDeadDeclarations runs the census over a fixture tree
// whose answer is known: a dead unexported function and a write-only
// field are reported; a method reached only through an interface call
// and a called exported name are not.
func TestCensusReportsDeadDeclarations(t *testing.T) {
	c := newCensus(t, filepath.Join("testdata", "census"))
	want := []string{
		"internal/fixture/fixture.go:10 fixture.counter.last",
		"internal/fixture/fixture.go:26 fixture.unused",
	}
	if got := c.dead(); !slices.Equal(got, want) {
		t.Errorf("census reports %q, want %q", got, want)
	}
}

// census type-checks every non-test file of the module and decides which
// of its declarations are live.
type census struct {
	root  string
	fset  *token.FileSet
	std   types.Importer
	dirs  map[string]string // import path → directory
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
	info  *types.Info

	refs     map[types.Object][][]types.Object // target → the owners of each reference
	nodes    map[types.Object]bool             // declarations whose liveness is decided
	roots    map[types.Object]bool             // live whether or not anything calls them
	viaIface map[types.Object]bool             // methods an interface call reaches
	live     map[types.Object]bool
	names    map[types.Object]string // declarations under internal/ and cmd/ → key
	byKey    map[string]types.Object // exported keys → declaration
}

func newCensus(t *testing.T, root string) *census {
	t.Helper()
	fset := token.NewFileSet()
	c := &census{
		root:  root,
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		dirs:  map[string]string{},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
		refs:     map[types.Object][][]types.Object{},
		nodes:    map[types.Object]bool{},
		roots:    map[types.Object]bool{},
		viaIface: map[types.Object]bool{},
		live:     map[types.Object]bool{},
		names:    map[types.Object]string{},
		byKey:    map[string]types.Object{},
	}
	// benchmark/ is the module repro/benchmark, which replaces repro with
	// its parent directory, so every directory's import path is "repro/"
	// followed by its path.
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "out") {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(root, path)
		c.dirs[filepath.ToSlash(filepath.Join("repro", rel))] = path
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for path := range c.dirs {
		if _, err := c.Import(path); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	for path, files := range c.files {
		for _, f := range files {
			for _, decl := range f.Decls {
				c.declare(path, decl)
			}
		}
	}
	for key := range uncalledAllowed {
		if obj, ok := c.byKey[key]; ok {
			c.roots[obj] = true
		}
	}
	c.markInterfaceCalls()
	c.decide()
	return c
}

// Import type-checks a package of the module from its non-test files and
// leaves every other import to the source importer.
func (c *census) Import(path string) (*types.Package, error) {
	if p, ok := c.pkgs[path]; ok {
		return p, nil
	}
	dir, ok := c.dirs[path]
	if !ok {
		return c.std.Import(path)
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if _, none := err.(*build.NoGoError); none {
		return nil, nil // a directory of tests, data or subdirectories
	}
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	p, err := (&types.Config{Importer: c}).Check(path, c.fset, files, c.info)
	if err != nil {
		return nil, err
	}
	c.pkgs[path], c.files[path] = p, files
	return p, nil
}

// declare records the nodes one top-level declaration introduces and the
// references made inside it.
func (c *census) declare(path string, decl ast.Decl) {
	pkg := c.pkgs[path]
	reported := strings.HasPrefix(path, "repro/internal/") || strings.HasPrefix(path, "repro/cmd/")
	// node records a declaration and, if it is reported, its key: the
	// package name, then the receiver's or struct's type name for a method
	// or field, then its own name.
	node := func(id *ast.Ident, owner string) types.Object {
		obj := c.info.Defs[id]
		c.nodes[obj] = true
		if !reported {
			return obj
		}
		if recv := recvOf(obj); recv != nil {
			if ptr, ok := recv.(*types.Pointer); ok {
				recv = ptr.Elem()
			}
			owner = recv.(*types.Named).Obj().Name()
		}
		key := pkg.Name() + "." + id.Name
		if owner != "" {
			key = pkg.Name() + "." + owner + "." + id.Name
		}
		c.names[obj] = key
		if id.IsExported() {
			c.byKey[key] = obj
		}
		return obj
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		obj := node(d.Name, "")
		if d.Recv == nil && (d.Name.Name == "main" || d.Name.Name == "init") {
			c.roots[obj] = true
		}
		c.uses(d, obj)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				obj := node(s.Name, "")
				st, ok := s.Type.(*ast.StructType)
				if !ok {
					c.uses(s.Type, obj)
					continue
				}
				for _, field := range st.Fields.List {
					// An unexported field lives by its reads. An exported
					// one may be read by reflection (encoding/json) and an
					// embedded one promotes, so those live with the type.
					if len(field.Names) == 0 || field.Names[0].IsExported() {
						c.uses(field.Type, obj)
						continue
					}
					var owners []types.Object
					for _, name := range field.Names {
						owners = append(owners, node(name, s.Name.Name))
					}
					c.uses(field.Type, owners...)
				}
			case *ast.ValueSpec:
				var owners []types.Object
				for _, name := range s.Names {
					obj := node(name, "")
					if name.Name == "_" {
						c.roots[obj] = true
					}
					owners = append(owners, obj)
				}
				c.uses(s, owners...)
			}
		}
	}
}

// uses records every reference inside n, which counts while any of its
// owners is live. It skips a field that is only being assigned: x.f = v
// writes f without reading it, and so does x.f.g = v when f holds its
// struct or array by value.
func (c *census) uses(n ast.Node, owners ...types.Object) {
	written := map[*ast.Ident]bool{}
	ast.Inspect(n, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN {
			for _, lhs := range as.Lhs {
				c.markWritten(lhs, written)
			}
		}
		return true
	})
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && !written[id] {
			if obj := c.info.Uses[id]; obj != nil {
				obj = origin(obj)
				c.refs[obj] = append(c.refs[obj], owners)
			}
		}
		return true
	})
}

func (c *census) markWritten(e ast.Expr, written map[*ast.Ident]bool) {
	for leaf := true; ; leaf = false {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			if _, array := c.info.TypeOf(x.X).Underlying().(*types.Array); !array {
				return
			}
			e = x.X
		case *ast.SelectorExpr:
			v, ok := c.info.Uses[x.Sel].(*types.Var)
			if !ok || !v.IsField() {
				return
			}
			if !leaf {
				switch v.Type().Underlying().(type) {
				case *types.Struct, *types.Array:
				default:
					return // written through a pointer, slice or map: f is read
				}
			}
			written[x.Sel] = true
			e = x.X
		default:
			return
		}
	}
}

// markInterfaceCalls finds the methods an interface call can reach: for
// every type of the module that implements an interface, the methods in
// its method set, promoted ones included, that the module calls through
// that interface, or all of them for a standard-library interface.
func (c *census) markInterfaceCalls() {
	calls := map[*types.Interface][]*types.Func{}
	for target := range c.refs {
		if recv := recvOf(target); recv != nil && types.IsInterface(recv) {
			it := recv.Underlying().(*types.Interface)
			calls[it] = append(calls[it], target.(*types.Func))
		}
	}
	for _, it := range c.stdInterfaces() {
		for i := 0; i < it.NumMethods(); i++ {
			calls[it] = append(calls[it], it.Method(i))
		}
	}
	for obj := range c.nodes {
		tn, ok := obj.(*types.TypeName)
		if !ok || types.IsInterface(tn.Type()) {
			continue
		}
		ptr := types.NewPointer(tn.Type())
		for it, methods := range calls {
			if !types.Implements(ptr, it) {
				continue
			}
			for _, m := range methods {
				if fn, _, _ := types.LookupFieldOrMethod(ptr, true, m.Pkg(), m.Name()); fn != nil {
					c.viaIface[origin(fn)] = true
				}
			}
		}
	}
}

// stdInterfaces lists the non-generic interfaces of every standard-library
// package the module imports, plus error.
func (c *census) stdInterfaces() []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, imp := range p.Imports() {
			walk(imp)
		}
		if _, ours := c.pkgs[p.Path()]; ours {
			return
		}
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() {
				continue
			}
			named, _ := tn.Type().(*types.Named)
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && named != nil && named.TypeParams() == nil {
				ifaces = append(ifaces, it)
			}
		}
	}
	for _, p := range c.pkgs {
		walk(p)
	}
	return ifaces
}

// decide computes the greatest set of live declarations: a declaration is
// dead unless it is a root or a live declaration other than itself
// references it.
func (c *census) decide() {
	for obj := range c.nodes {
		c.live[obj] = true
	}
	for changed := true; changed; {
		changed = false
		for obj := range c.nodes {
			if c.live[obj] && !c.roots[obj] && !c.called(obj) {
				c.live[obj] = false
				changed = true
			}
		}
	}
}

// dead lists the reported declarations that are not live, each as
// "file:line key" with the file relative to the census root.
func (c *census) dead() []string {
	var dead []string
	for obj, key := range c.names {
		if !c.live[obj] {
			pos := c.fset.Position(obj.Pos())
			file, _ := filepath.Rel(c.root, pos.Filename)
			dead = append(dead, fmt.Sprintf("%s:%d %s", filepath.ToSlash(file), pos.Line, key))
		}
	}
	slices.Sort(dead)
	return dead
}

// called reports whether an interface call reaches obj or a live
// declaration other than obj references it.
func (c *census) called(obj types.Object) bool {
	if c.viaIface[obj] {
		return true
	}
	for _, owners := range c.refs[obj] {
		for _, o := range owners {
			if o != obj && c.live[o] {
				return true
			}
		}
	}
	return false
}

// recvOf is a method's receiver type, or nil for anything else.
func recvOf(obj types.Object) types.Type {
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			return recv.Type()
		}
	}
	return nil
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
