package dophy

import (
	"encoding/json"
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
// checked. All-lowercase bare words, acronyms, file names and paths are
// out of scope: they are not distinguishable from prose, or are not Go
// names.
//
// It also fails on a backticked bench metric name that bench/ does not
// emit. A span is a metric name when it is snake_case, either dotted after
// a layer some declared metric uses (`core.on_journey_share`) or holding an
// underscore (`sim_s_per_host_s`), and ends in the last word of a declared
// metric (`share`, `epoch`, `s`, ...); `dophy_invariants` and `p_l` are not.
func TestDocsNameDeclaredCode(t *testing.T) {
	m := moduleNames(t)
	emitted, declared := benchMetrics(t)
	layers, ends := map[string]bool{}, map[string]bool{}
	for name := range declared {
		if layer, _, ok := strings.Cut(name, "."); ok {
			layers[layer] = true
		}
		ends[lastWord(name)] = true
	}
	isMetric := func(span string) bool {
		mm := metricSpan.FindStringSubmatch(span)
		if mm == nil || !ends[lastWord(span)] {
			return false
		}
		if mm[1] == "" {
			return strings.Contains(mm[2], "_")
		}
		return layers[mm[1]]
	}
	checked, metrics := 0, 0
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
				if isMetric(span[1]) {
					metrics++
					if !emitted[span[1]] {
						t.Errorf("%s:%d: `%s` names a bench metric that bench/ does not emit", doc, i+1, span[1])
					}
					continue
				}
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
	if checked < 200 || metrics < 5 {
		t.Fatalf("checked only %d names and %d metric names: the scan no longer reads the docs", checked, metrics)
	}
}

// metricSpan matches a span shaped like a bench metric name: lowercase
// snake_case words, optionally after one layer prefix
// (`core.on_journey_share`, `sim_s_per_host_s`).
var metricSpan = regexp.MustCompile(`^(?:([a-z][a-z0-9]*)\.)?([a-z][a-z0-9]*(?:_[a-z0-9]+)*)$`)

// benchMetrics returns the metric names bench/ emits, read from its Go
// files as text: every quoted name, and every quoted dotted name joined
// with each suffix the code appends to one (`sg.metric+"_share"`). It also
// returns the names BENCHMARK.json declares, and fails unless bench/ emits
// each of them, which keeps the text scan honest.
func benchMetrics(t *testing.T) (emitted, declared map[string]bool) {
	quoted := regexp.MustCompile(`"([a-z][a-z0-9_]*(?:\.[a-z][a-z0-9_]*)?)"`)
	appended := regexp.MustCompile(`\+\s*"(_[a-z0-9_]+)"`)
	files, err := filepath.Glob(filepath.Join("bench", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names, suffixes []string
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range quoted.FindAllStringSubmatch(string(src), -1) {
			names = append(names, m[1])
		}
		for _, m := range appended.FindAllStringSubmatch(string(src), -1) {
			suffixes = append(suffixes, m[1])
		}
	}
	emitted = map[string]bool{}
	for _, n := range names {
		emitted[n] = true
		if strings.Contains(n, ".") {
			for _, suf := range suffixes {
				emitted[n+suf] = true
			}
		}
	}
	text, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(text, &spec); err != nil {
		t.Fatal(err)
	}
	declared = map[string]bool{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		declared[m.Name] = true
		if !emitted[m.Name] {
			t.Errorf("BENCHMARK.json declares %s, which the scan of bench/ does not find", m.Name)
		}
	}
	if len(declared) < 20 {
		t.Fatalf("BENCHMARK.json declares only %d metrics: the parse no longer reads it", len(declared))
	}
	return emitted, declared
}

// lastWord returns a metric name's last snake_case or dotted word.
func lastWord(name string) string {
	return name[strings.LastIndexAny(name, "_.")+1:]
}
