package topo

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// densePackages are the directories, relative to this package, whose
// per-link and per-neighbour state is indexed by LinkTable (DESIGN.md
// "Dense link indexing").
var densePackages = []string{"../tomo", "../trace", "../experiment", "../radio", "../routing"}

// TestNoLinkKeyedMapFields fails on a struct field in a dense package whose
// type contains a map keyed by topo.Link or topo.NodeID. Such a map in
// place of a LinkTable-indexed slice changes no output, and a map built
// once allocates nothing per event, so no behaviour test or allocation
// gate sees it: it only makes every lookup hash. Routing's neighbour table
// as a map cost churn-forward about 9% of its simulated seconds per host
// second, below what the benchmark's 25% bound sees (DESIGN.md
// "Determinism & invariants").
func TestNoLinkKeyedMapFields(t *testing.T) {
	fset := token.NewFileSet()
	fields := 0
	for _, dir := range densePackages {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok {
					return true
				}
				for _, field := range st.Fields.List {
					fields++
					if key := linkKeyedMap(field.Type); key != "" {
						t.Errorf("%s: struct field keyed by topo.%s: per-link state in %s is indexed by topo.LinkTable",
							fset.Position(field.Pos()), key, dir)
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if fields < 100 {
		t.Fatalf("checked only %d struct fields: the package list no longer matches the tree", fields)
	}
}

// linkKeyedMap returns "Link" or "NodeID" when the type expression holds a
// map keyed by topo.Link or topo.NodeID, and "" otherwise. Function types
// are skipped: a parameter is not stored state.
func linkKeyedMap(expr ast.Expr) string {
	found := ""
	ast.Inspect(expr, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncType:
			return false
		case *ast.MapType:
			if sel, ok := n.Key.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "topo" && (sel.Sel.Name == "Link" || sel.Sel.Name == "NodeID") {
					found = sel.Sel.Name
				}
			}
		}
		return found == ""
	})
	return found
}
