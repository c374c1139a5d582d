package trafficscope

import (
	"go/ast"
	"go/build"
	"go/doc"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestPublicAPIEndToEnd exercises the root package exactly the way the
// README quickstart does.
func TestPublicAPIEndToEnd(t *testing.T) {
	study, err := NewStudy(Config{Seed: 1, Scale: 0.003, Salt: "api"})
	if err != nil {
		t.Fatal(err)
	}
	results, err := study.Run()
	if err != nil {
		t.Fatal(err)
	}
	if results.Records == 0 {
		t.Fatal("no records")
	}
	if len(results.SiteNames()) != 5 {
		t.Errorf("sites = %v", results.SiteNames())
	}
	if tab := results.Fig01ContentComposition(); tab.String() == "" {
		t.Error("figure rendering")
	}
}

func TestPublicDTWAndClustering(t *testing.T) {
	a := []float64{0, 1, 2, 1, 0}
	b := []float64{0, 0, 1, 2, 1}
	if d, err := DTWDistance(a, b); err != nil || d <= 0 {
		t.Fatalf("DTWDistance = %v, %v; want a positive distance", d, err)
	}
	dist := [][]float64{{0, 1, 9}, {1, 0, 9}, {9, 9, 0}}
	dendro, err := Agglomerative(dist, LinkageAverage)
	if err != nil {
		t.Fatal(err)
	}
	labels, k, err := dendro.CutK(2)
	if err != nil || k != 2 {
		t.Fatalf("cut: %v %d", err, k)
	}
	if labels[0] != labels[1] || labels[0] == labels[2] {
		t.Errorf("labels = %v", labels)
	}
}

// TestFacadeNamesAreUsed keeps the facade to what its documentation
// runs: every exported name trafficscope.go declares must be selected as
// trafficscope.Name in example_test.go, or appear as a word in
// README.md. A name neither uses is surface nobody exercises.
func TestFacadeNamesAreUsed(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "trafficscope.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	examples, err := parser.ParseFile(fset, "example_test.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, w := range regexp.MustCompile(`\w+`).FindAllString(string(readme), -1) {
		used[w] = true
	}
	ast.Inspect(examples, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "trafficscope" {
				used[sel.Sel.Name] = true
			}
		}
		return true
	})
	var declared []*ast.Ident
	for _, decl := range facade.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			declared = append(declared, d.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					declared = append(declared, s.Name)
				case *ast.ValueSpec:
					declared = append(declared, s.Names...)
				}
			}
		}
	}
	var unused []string
	for _, id := range declared {
		if id.IsExported() && !used[id.Name] {
			unused = append(unused, id.Name)
		}
	}
	if len(unused) > 0 {
		t.Errorf("trafficscope.go exports %d names no Example selects and README.md never names: %v", len(unused), unused)
	}
}

// configFieldsOnlyTestsSet are the config fields no tool sets on
// purpose: each exists so a test can substitute a fake, named here.
var configFieldsOnlyTestsSet = map[string]string{
	"edge.Config.FillTransport":    "fill_test.go swaps in a counting transport",
	"fleet.ShieldConfig.Transport": "shield_test.go counts its dials; hops_test.go's replyLog records probe replies",
}

// TestConfigFieldsAreSet gives config fields the rule
// TestFacadeNamesAreUsed gives the facade: every exported field of a
// *Config, *Options or Params struct under internal/ (the count `make
// loc` prints is the one this test logs) must be set by something a user
// runs. A field counts as set by a composite-literal key, an assignment
// or a &x.F in non-test code anywhere in the module (a flags.go
// registration is one), or by a checked Example in example_test.go. A
// default its own package applies, and any test, set nothing. Fields
// resolve by type, so same-named fields of different structs never
// vouch for each other.
func TestConfigFieldsAreSet(t *testing.T) {
	mod := newModuleChecker(t)
	configStruct := regexp.MustCompile(`(Config|Options|Params)$`)
	fields := map[*types.Var]string{}
	var names []string
	for _, p := range mod.pkgs {
		if !strings.HasPrefix(p.pkg.Path(), "trafficscope/internal/") {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !configStruct.MatchString(name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !f.Embedded() {
					key := p.pkg.Name() + "." + name + "." + f.Name()
					fields[f] = key
					names = append(names, key)
				}
			}
		}
	}
	t.Logf("%d config fields", len(fields))

	set := map[string]bool{}
	for _, p := range mod.pkgs {
		for _, file := range p.files {
			for f, nonDefault := range fieldsSetIn(file, p.info, fields) {
				if f.Pkg() != p.pkg || nonDefault {
					set[fields[f]] = true
				}
			}
		}
	}
	for _, ex := range mod.examples {
		for f := range fieldsSetIn(ex, mod.exampleInfo, fields) {
			set[fields[f]] = true
		}
	}

	sort.Strings(names)
	var unset []string
	for _, name := range names {
		_, allowed := configFieldsOnlyTestsSet[name]
		switch {
		case !set[name] && !allowed:
			unset = append(unset, name)
		case set[name] && allowed:
			t.Errorf("%s is set outside tests now; drop it from configFieldsOnlyTestsSet", name)
		}
	}
	for name := range configFieldsOnlyTestsSet {
		if !slices.Contains(names, name) {
			t.Errorf("configFieldsOnlyTestsSet names %s, which is no config field", name)
		}
	}
	if len(unset) > 0 {
		t.Errorf("%d config fields only defaults or tests set: %v", len(unset), unset)
	}
}

// fieldsSetIn returns the config fields n sets, as composite-literal
// keys, assignment or ++/-- targets, or operands of &. A field maps to
// false when every site that sets it is a default: an assignment whose
// right-hand side, or the condition of an enclosing if, reads the field.
func fieldsSetIn(n ast.Node, info *types.Info, fields map[*types.Var]string) map[*types.Var]bool {
	field := func(e ast.Expr) *types.Var {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok && info.Selections[sel] != nil {
			f, _ := info.Selections[sel].Obj().(*types.Var)
			return f
		}
		return nil
	}
	reads := func(n ast.Node, f *types.Var) (found bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok && field(e) == f {
				found = true
			}
			return !found
		})
		return found
	}
	out := map[*types.Var]bool{}
	mark := func(f *types.Var, isDefault bool) {
		if fields[f] != "" {
			out[f] = out[f] || !isDefault
		}
	}
	var conds []ast.Expr // conditions of the enclosing ifs
	var stack []ast.Node
	ast.Inspect(n, func(n ast.Node) bool {
		if n == nil {
			if _, ok := stack[len(stack)-1].(*ast.IfStmt); ok {
				conds = conds[:len(conds)-1]
			}
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.IfStmt:
			conds = append(conds, n.Cond)
		case *ast.CompositeLit:
			for _, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						f, _ := info.Uses[id].(*types.Var)
						mark(f, false)
					}
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if f := field(lhs); fields[f] != "" {
					isDefault := slices.ContainsFunc(conds, func(c ast.Expr) bool { return reads(c, f) })
					for _, rhs := range n.Rhs {
						isDefault = isDefault || reads(rhs, f)
					}
					mark(f, isDefault)
				}
			}
		case *ast.IncDecStmt:
			mark(field(n.X), false)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				mark(field(n.X), false)
			}
		}
		return true
	})
	return out
}

// exportsOnlyTestsCall are the exported functions and methods under
// internal/ that nothing but a test calls: each lets the test named here
// observe behaviour no kept API exposes.
var exportsOnlyTestsCall = map[string]string{
	"cdn.SingleFlight.Inflight": "the fill tests of cdn, edge and fleet wait for a flight to open before racing followers onto it; no counter shows an open flight",
}

// TestExportedFuncsAreCalled gives exported functions the rule
// TestConfigFieldsAreSet gives config fields: every exported function or
// method under internal/ (the count `make loc` prints is the one this test
// logs) must be used by non-test code somewhere in the module or by a
// checked Example in example_test.go. A function counts as used when such
// code names it; a method, when such code selects any method of its name,
// so a call through an interface vouches for every implementation.
func TestExportedFuncsAreCalled(t *testing.T) {
	mod := newModuleChecker(t)
	funcs := map[*types.Func]string{}
	var names []string
	add := func(f *types.Func, key string) {
		if f.Exported() {
			funcs[f] = key
			names = append(names, key)
		}
	}
	for _, p := range mod.pkgs {
		if !strings.HasPrefix(p.pkg.Path(), "trafficscope/internal/") {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				add(obj, p.pkg.Name()+"."+name)
			case *types.TypeName:
				if named, ok := obj.Type().(*types.Named); ok && !obj.IsAlias() {
					for i := 0; i < named.NumMethods(); i++ {
						m := named.Method(i)
						add(m, p.pkg.Name()+"."+name+"."+m.Name())
					}
				}
			}
		}
	}
	t.Logf("%d exported functions", len(funcs))

	used := map[string]bool{}
	selected := map[string]bool{} // method names non-test code selects
	visit := func(n ast.Node, info *types.Info) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if f, ok := info.Uses[n].(*types.Func); ok && funcs[f.Origin()] != "" {
					used[funcs[f.Origin()]] = true
				}
			case *ast.SelectorExpr:
				if s := info.Selections[n]; s != nil && s.Kind() != types.FieldVal {
					selected[n.Sel.Name] = true
				}
			}
			return true
		})
	}
	for _, p := range mod.pkgs {
		for _, file := range p.files {
			visit(file, p.info)
		}
	}
	for _, ex := range mod.examples {
		visit(ex, mod.exampleInfo)
	}
	for f, key := range funcs {
		if f.Type().(*types.Signature).Recv() != nil && selected[f.Name()] {
			used[key] = true
		}
	}

	sort.Strings(names)
	var uncalled []string
	for _, name := range names {
		_, allowed := exportsOnlyTestsCall[name]
		switch {
		case !used[name] && !allowed:
			uncalled = append(uncalled, name)
		case used[name] && allowed:
			t.Errorf("%s has a non-test caller now; drop it from exportsOnlyTestsCall", name)
		}
	}
	for name := range exportsOnlyTestsCall {
		if !slices.Contains(names, name) {
			t.Errorf("exportsOnlyTestsCall names %s, which is no exported function under internal/", name)
		}
	}
	if len(uncalled) > 0 {
		t.Errorf("%d exported functions only tests call: %v", len(uncalled), uncalled)
	}
}

// moduleChecker holds the module's packages type-checked from their
// non-test files, plus the checked Examples of example_test.go.
type moduleChecker struct {
	fset        *token.FileSet
	std         types.Importer
	byPath      map[string]*checkedPackage
	pkgs        []*checkedPackage
	examples    []*ast.FuncDecl
	exampleInfo *types.Info
}

type checkedPackage struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func newModuleChecker(t *testing.T) *moduleChecker {
	t.Helper()
	m := &moduleChecker{fset: token.NewFileSet(), std: importer.Default(), byPath: map[string]*checkedPackage{}}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		_, err = m.load(path)
		if _, none := err.(*build.NoGoError); none {
			return nil
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// The Examples are an external test package of the root: check it
	// whole, then keep the Example functions that carry an Output.
	bp, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	files, err := m.parse(".", bp.XTestGoFiles)
	if err != nil {
		t.Fatal(err)
	}
	m.exampleInfo = newInfo()
	conf := types.Config{Importer: m}
	if _, err := conf.Check("trafficscope_test", m.fset, files, m.exampleInfo); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if filepath.Base(m.fset.File(f.Pos()).Name()) != "example_test.go" {
			continue
		}
		checked := map[string]bool{}
		for _, ex := range doc.Examples(f) {
			checked[ex.Name] = ex.Output != "" || ex.EmptyOutput
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && checked[strings.TrimPrefix(fn.Name.Name, "Example")] {
				m.examples = append(m.examples, fn)
			}
		}
	}
	return m
}

// Import resolves the module's own packages from source and everything
// else through the toolchain's export data.
func (m *moduleChecker) Import(path string) (*types.Package, error) {
	if path == "trafficscope" {
		return m.load(".")
	}
	if dir, ok := strings.CutPrefix(path, "trafficscope/"); ok {
		return m.load(dir)
	}
	return m.std.Import(path)
}

// load type-checks the module package in dir from its non-test files,
// once.
func (m *moduleChecker) load(dir string) (*types.Package, error) {
	path := "trafficscope"
	if dir != "." {
		path += "/" + filepath.ToSlash(dir)
	}
	if p, ok := m.byPath[path]; ok {
		return p.pkg, nil
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	files, err := m.parse(dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	p := &checkedPackage{files: files, info: newInfo()}
	conf := types.Config{Importer: m}
	if p.pkg, err = conf.Check(path, m.fset, files, p.info); err != nil {
		return nil, err
	}
	m.byPath[path] = p
	m.pkgs = append(m.pkgs, p)
	return p.pkg, nil
}

func (m *moduleChecker) parse(dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

func newInfo() *types.Info {
	return &types.Info{Uses: map[*ast.Ident]types.Object{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
}
