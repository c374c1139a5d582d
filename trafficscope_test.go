package trafficscope

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
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
