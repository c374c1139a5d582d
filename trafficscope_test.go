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
// internal/ that no program reaches: each lets the test named here
// observe or steer behaviour no kept API exposes.
var exportsOnlyTestsCall = map[string]string{
	"cdn.SingleFlight.Inflight": "the fill tests of cdn, edge and fleet wait for a flight to open before racing followers onto it; no counter shows an open flight",
	"slo.Engine.SetClock":       "the slo tests step the engine's time so a window's verdict does not depend on when the test runs",
}

// TestExportedFuncsAreCalled gives exported functions the rule
// TestConfigFieldsAreSet gives config fields: every exported function or
// method under internal/ (the count `make loc` prints is the one this test
// logs) must be reached from a program, as reachable computes it from
// every main, init, package-level variable initializer and checked
// Example in example_test.go.
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

	var examples []funcBody
	for _, ex := range mod.examples {
		examples = append(examples, funcBody{node: ex, info: mod.exampleInfo})
	}
	reached := reachable(t, mod.pkgs, mod.std, examples...)

	sort.Strings(names)
	used := map[string]bool{}
	for f, key := range funcs {
		used[key] = reached[f]
	}
	var unreached []string
	for _, name := range names {
		_, allowed := exportsOnlyTestsCall[name]
		switch {
		case !used[name] && !allowed:
			unreached = append(unreached, name)
		case used[name] && allowed:
			t.Errorf("%s is reached from a program now; drop it from exportsOnlyTestsCall", name)
		}
	}
	for name := range exportsOnlyTestsCall {
		if !slices.Contains(names, name) {
			t.Errorf("exportsOnlyTestsCall names %s, which is no exported function under internal/", name)
		}
	}
	if len(unreached) > 0 {
		t.Errorf("%d exported functions no program reaches: %v", len(unreached), unreached)
	}
}

// TestReachableRule runs reachable over small programs and checks which
// methods it reaches: a method counts as used only when a call from a
// root leads to it, not when some other method of its name is called.
func TestReachableRule(t *testing.T) {
	cases := []struct {
		name, src          string
		reached, unreached []string
	}{{
		name: "a standard-library method of the same name vouches for nothing",
		src: `import ("net"; "net/http")
type CDN struct{}
func (CDN) Serve() {}
func main() { var s http.Server; var l net.Listener; s.Serve(l) }`,
		unreached: []string{"CDN.Serve"},
	}, {
		name: "a call from an unreached function reaches nothing",
		src: `type T struct{}
func (T) M() {}
type U struct{}
func (U) M() {}
func unused() { T{}.M() }
func main() { U{}.M() }`,
		reached:   []string{"U.M"},
		unreached: []string{"T.M", "unused"},
	}, {
		name: "an interface call reaches every type that implements the interface",
		src: `type I interface{ M() }
type T struct{}
func (*T) M() {}
type U struct{}
func (U) M() {}
type V struct{}
func (V) M(int) {}
func main() { var i I = &T{}; i.M() }`,
		reached:   []string{"T.M", "U.M"},
		unreached: []string{"V.M"},
	}, {
		name: "a type-parameter call reaches every type that satisfies the constraint",
		src: `type Sizer interface{ Size() int }
type A struct{}
func (A) Size() int { return 0 }
type B struct{}
func (B) Size() string { return "" }
func total[S Sizer](s S) int { return s.Size() }
func main() { total(A{}) }`,
		reached:   []string{"A.Size", "total"},
		unreached: []string{"B.Size"},
	}, {
		name: "the standard library calls String and sort.Interface, not a lone Len",
		src: `import ("fmt"; "sort")
type C int
func (C) String() string { return "c" }
type byN []int
func (b byN) Len() int { return len(b) }
func (b byN) Less(i, j int) bool { return b[i] < b[j] }
func (b byN) Swap(i, j int) { b[i], b[j] = b[j], b[i] }
type K struct{}
func (K) Len() int { return 0 }
func main() { fmt.Println(C(1)); sort.Sort(byN{}) }`,
		reached:   []string{"C.String", "byN.Len", "byN.Less", "byN.Swap"},
		unreached: []string{"K.Len"},
	}, {
		name: "initializers are roots; an inline assertion in a generic body reaches a generic method",
		src: `var registry = []func(){ newA }
type box[T any] struct{ v T }
func (b *box[T]) state() *box[T] { return b }
func (b *box[T]) adopt(src any) { _ = src.(interface{ state() *box[T] }).state() }
type ints struct{ box[int] }
func newA() { var x ints; x.adopt(&x) }
func main() {}`,
		reached: []string{"newA", "box.adopt", "box.state"},
	}}
	std := importer.Default()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, "main.go", "package main\n"+c.src, 0)
			if err != nil {
				t.Fatal(err)
			}
			p := &checkedPackage{files: []*ast.File{f}, info: newInfo()}
			if p.pkg, err = (&types.Config{Importer: std}).Check("main", fset, p.files, p.info); err != nil {
				t.Fatal(err)
			}
			got := map[string]bool{}
			for f := range reachable(t, []*checkedPackage{p}, std) {
				name := f.Name()
				if recv := f.Type().(*types.Signature).Recv(); recv != nil {
					typ := recv.Type()
					if ptr, ok := typ.(*types.Pointer); ok {
						typ = ptr.Elem()
					}
					name = typ.(*types.Named).Obj().Name() + "." + name
				}
				got[name] = true
			}
			for _, name := range c.reached {
				if !got[name] {
					t.Errorf("%s not reached", name)
				}
			}
			for _, name := range c.unreached {
				if got[name] {
					t.Errorf("%s reached", name)
				}
			}
		})
	}
}

// stdCallbacks are the standard-library interfaces through which the
// standard library itself calls module methods (fmt, errors, encoding,
// net/http, io, sort, container/heap, net): a module type that
// implements one has that interface's methods reached.
var stdCallbacks = [][2]string{
	{"", "error"}, {"fmt", "Stringer"},
	{"encoding", "TextMarshaler"}, {"encoding", "TextUnmarshaler"}, {"encoding/json", "Marshaler"},
	{"net/http", "Handler"}, {"net/http", "RoundTripper"},
	{"io", "Reader"}, {"io", "Writer"}, {"io", "Closer"},
	{"sort", "Interface"}, {"container/heap", "Interface"}, {"net", "Listener"},
}

// funcBody is code reachable walks: a declaration, an initializer or an
// Example, with the info it was checked with.
type funcBody struct {
	node ast.Node
	info *types.Info
}

// reachable returns the functions and methods (by their generic origin)
// a program reaches from the roots of pkgs (every main of a main
// package, every init, every package-level variable initializer) and
// from extra. A reached body reaches every function and method it names.
// A method named through an interface or a type parameter reaches the
// method of that name of every defined type of pkgs that can stand
// behind it: one that implements the interface, or, where generics make
// signatures inexact (an interface that mentions a type parameter, or a
// generic type), one whose method set has a method of each of the
// interface's names. The methods of stdCallbacks' interfaces are reached
// on every type implementing one. std resolves those interfaces; it must
// be the importer pkgs were checked with.
func reachable(t testing.TB, pkgs []*checkedPackage, std types.Importer, extra ...funcBody) map[*types.Func]bool {
	bodies := map[*types.Func]funcBody{}
	var named []*types.Named
	work := extra
	for _, p := range pkgs {
		for _, file := range p.files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					b := funcBody{node: d, info: p.info}
					bodies[p.info.Defs[d.Name].(*types.Func)] = b
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.pkg.Name() == "main") {
						work = append(work, b)
					}
				case *ast.GenDecl:
					if d.Tok == token.VAR {
						work = append(work, funcBody{node: d, info: p.info})
					}
				}
			}
		}
		for _, name := range p.pkg.Scope().Names() {
			if tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() && !types.IsInterface(tn.Type()) {
				named = append(named, tn.Type().(*types.Named))
			}
		}
	}

	reached := map[*types.Func]bool{}
	reach := func(f *types.Func) {
		if f = f.Origin(); !reached[f] {
			reached[f] = true
			if b, ok := bodies[f]; ok {
				work = append(work, b)
			}
		}
	}
	// behind reaches the method called name, or every method of iface
	// when name is "", on every type that can stand behind iface.
	behind := func(iface *types.Interface, name string) {
		loose := mentionsTypeParam(iface)
		for _, n := range named {
			ptr := types.NewPointer(n)
			var ms []*types.Func
			for i := 0; i < iface.NumMethods(); i++ {
				obj, _, _ := types.LookupFieldOrMethod(ptr, false, iface.Method(i).Pkg(), iface.Method(i).Name())
				if m, ok := obj.(*types.Func); ok {
					ms = append(ms, m)
				}
			}
			if len(ms) < iface.NumMethods() {
				continue
			}
			if !loose && n.TypeParams().Len() == 0 && !types.Implements(ptr, iface) {
				continue
			}
			for _, m := range ms {
				if name == "" || m.Name() == name {
					reach(m)
				}
			}
		}
	}
	for _, cb := range stdCallbacks {
		scope := types.Universe
		if cb[0] != "" {
			pkg, err := std.Import(cb[0])
			if err != nil {
				t.Fatal(err)
			}
			scope = pkg.Scope()
		}
		behind(scope.Lookup(cb[1]).Type().Underlying().(*types.Interface), "")
	}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		ast.Inspect(b.node, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			f, ok := b.info.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			if recv := f.Type().(*types.Signature).Recv(); recv != nil {
				if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
					behind(iface, f.Name())
					return true
				}
			}
			reach(f)
			return true
		})
	}
	return reached
}

// mentionsTypeParam reports whether t is built from a type parameter,
// where types.Implements cannot speak for the instantiations.
func mentionsTypeParam(t types.Type) bool {
	switch t := t.(type) {
	case *types.TypeParam:
		return true
	case *types.Map:
		return mentionsTypeParam(t.Key()) || mentionsTypeParam(t.Elem())
	case interface{ Elem() types.Type }: // pointer, slice, array, chan
		return mentionsTypeParam(t.Elem())
	case *types.Named:
		for i := 0; i < t.TypeArgs().Len(); i++ {
			if mentionsTypeParam(t.TypeArgs().At(i)) {
				return true
			}
		}
	case *types.Signature:
		return mentionsTypeParam(t.Params()) || mentionsTypeParam(t.Results())
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if mentionsTypeParam(t.At(i).Type()) {
				return true
			}
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if mentionsTypeParam(t.Field(i).Type()) {
				return true
			}
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			if mentionsTypeParam(t.Method(i).Type()) {
				return true
			}
		}
	}
	return false
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
	return &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}
