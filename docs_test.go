package dophy

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docsWithNames are the documents whose backticked Go names must name code
// that exists. CHANGES.md and ROADMAP.md are history and plans; they may
// name code that is gone or not yet written.
var docsWithNames = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

// fileExts are the last parts that make a doc name a file name
// (`shard.go`), which the doc test leaves alone.
var fileExts = map[string]bool{"go": true, "md": true, "txt": true, "json": true, "yml": true, "sh": true, "csv": true, "out": true, "mod": true}

// codeSpan matches one inline code span; docName matches a span that is a
// Go name, bare or qualified (X.Y, X.Y.Z), optionally followed by a call's
// arguments or a type's instantiation, which are dropped.
var (
	codeSpan = regexp.MustCompile("`([^`\n]+)`")
	docName  = regexp.MustCompile(`^([A-Za-z][A-Za-z0-9]*(?:\.[A-Za-z][A-Za-z0-9]*)*)(?:\(.*\)|\[.*\])?$`)
)

// moduleDecls is what the module's Go files declare and import.
type moduleDecls struct {
	// names holds package-level declarations, methods, struct fields and
	// interface methods, each member also as Type.Name.
	names map[string]bool
	types map[string]bool
	pkgs  map[string]bool
	// external holds the names of packages imported from outside the
	// module, whose members the docs may cite freely.
	external map[string]bool
}

// moduleNames parses every Go file of the module, bench/ included.
func moduleNames(t *testing.T) moduleDecls {
	m := moduleDecls{map[string]bool{}, map[string]bool{}, map[string]bool{}, map[string]bool{}}
	declared := m.names
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		files++
		m.pkgs[f.Name.Name] = true
		for _, imp := range f.Imports {
			if p := strings.Trim(imp.Path.Value, `"`); !strings.HasPrefix(p, "dophy") {
				m.external[p[strings.LastIndex(p, "/")+1:]] = true
			}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				declared[decl.Name.Name] = true
				if decl.Recv != nil {
					declared[recvName(decl.Recv.List[0].Type)+"."+decl.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declared[spec.Name.Name] = true
						m.types[spec.Name.Name] = true
						declareMembers(declared, spec.Name.Name, spec.Type)
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							declared[n.Name] = true
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 100 {
		t.Fatalf("parsed only %d Go files: the walk no longer covers the module", files)
	}
	return m
}

// recvName returns a method receiver's type name, without pointer or type
// parameters.
func recvName(expr ast.Expr) string {
	for {
		switch e := expr.(type) {
		case *ast.StarExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.IndexListExpr:
			expr = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// declareMembers declares a struct type's fields and an interface type's
// methods, bare and as owner.Name.
func declareMembers(declared map[string]bool, owner string, typ ast.Expr) {
	var fields *ast.FieldList
	switch typ := typ.(type) {
	case *ast.StructType:
		fields = typ.Fields
	case *ast.InterfaceType:
		fields = typ.Methods
	default:
		return
	}
	for _, field := range fields.List {
		names := field.Names
		if len(names) == 0 { // embedded: the field is named after its type
			if n := recvName(field.Type); n != "" {
				names = []*ast.Ident{{Name: n}}
			} else if sel, ok := field.Type.(*ast.SelectorExpr); ok {
				names = []*ast.Ident{sel.Sel}
			}
		}
		for _, n := range names {
			declared[n.Name] = true
			declared[owner+"."+n.Name] = true
		}
	}
}

// goLike reports whether a bare name reads as a Go identifier rather than
// a word, an acronym or a value: it mixes upper and lower case, as
// CamelCase and camelCase names do.
func goLike(name string) bool {
	return strings.ToLower(name) != name && strings.ToUpper(name) != name
}

// undeclared returns the first part of a doc name that nothing declares,
// or "". A leading package name is dropped. A name that starts with a
// lowercase variable (`j.Origin`) is a member access, and each member must
// be declared; Type.Member must be declared as a pair, and any further part
// (a member of the member's type) on its own.
func (m moduleDecls) undeclared(parts []string) string {
	if len(parts) > 1 && m.pkgs[parts[0]] {
		parts = parts[1:]
	}
	members := parts[1:]
	switch {
	case len(parts) > 1 && !m.types[parts[0]] && strings.ToLower(parts[0]) == parts[0]:
		// a variable: its members are checked alone
	case !m.names[parts[0]]:
		return parts[0]
	case len(parts) > 1:
		if !m.names[parts[0]+"."+parts[1]] {
			return parts[0] + "." + parts[1]
		}
		members = parts[2:]
	}
	for _, p := range members {
		if !m.names[p] {
			return p
		}
	}
	return ""
}

// TestDocsNameDeclaredCode fails on a backticked Go name in DESIGN.md,
// README.md or EXPERIMENTS.md that nothing in the module declares: a
// CamelCase or camelCase identifier (a type, function, method, field,
// test), or a qualified name such as `collect.Network`, `Network.Recycle`
// or `shard.Engine.Send`, whose every part must be declared. A qualified
// name on a package from outside the module (`slices.SortFunc`) is not
// checked. All-lowercase bare words, acronyms, snake_case metric names and
// file names and paths are out of scope: they are not distinguishable from
// prose, or are not Go names.
func TestDocsNameDeclaredCode(t *testing.T) {
	m := moduleNames(t)
	checked := 0
	for _, doc := range docsWithNames {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		inFence := false
		for i, line := range strings.Split(string(text), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inFence = !inFence
				continue
			}
			if inFence {
				continue
			}
			for _, span := range codeSpan.FindAllStringSubmatch(line, -1) {
				name := docName.FindStringSubmatch(span[1])
				if name == nil {
					continue
				}
				parts := strings.Split(name[1], ".")
				if len(parts) == 1 && !goLike(parts[0]) || m.external[parts[0]] && !m.pkgs[parts[0]] || fileExts[parts[len(parts)-1]] {
					continue
				}
				checked++
				if missing := m.undeclared(parts); missing != "" {
					t.Errorf("%s:%d: `%s` names %s, which nothing in the module declares", doc, i+1, span[1], missing)
				}
			}
		}
	}
	if checked < 200 {
		t.Fatalf("checked only %d names: the scan no longer reads the docs", checked)
	}
}
