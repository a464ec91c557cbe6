package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"regexp"
	"strings"
	"testing"
)

// TestOwnershipProseMatchesAnnotations reconciles the human-readable
// ownership comments on the borrowing surfaces with the machine-checked
// //dophy:returns annotations: a doc comment that promises scratch-aliasing
// ("aliases ...", "valid until the next ...", "pointer stays valid") must
// carry the annotation the borrowspan rule enforces, and a doc comment that
// promises caller ownership must not. Prose and contract drifting apart is
// exactly the bug class the borrow layer exists to close.
func TestOwnershipProseMatchesAnnotations(t *testing.T) {
	files := []string{
		"../mat/mat.go",
		"../tomo/lsq/lsq.go",
		"../tomo/minc/minc.go",
		"../tomo/geomle/arena.go",
		"../trace/trace.go",
	}
	borrowProse := regexp.MustCompile(
		`aliases the \w+'s (scratch|backing)|aliases (s\.x|est\.out|e\.out|r\.counts)|valid until the next|pointer stays valid`)
	callerOwns := regexp.MustCompile(`caller owns the returned`)

	borrowed, owned := 0, 0
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parse %s: %v", path, err)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			doc := fd.Doc.Text()
			annotated := false
			for _, c := range fd.Doc.List {
				if strings.HasPrefix(c.Text, ReturnsPragma) {
					annotated = true
				}
			}
			name := fd.Name.Name
			if borrowProse.MatchString(doc) {
				borrowed++
				if !annotated {
					t.Errorf("%s: %s's doc promises a borrowed result but the declaration lacks %s borrowed(recv)",
						path, name, ReturnsPragma)
				}
			}
			if callerOwns.MatchString(doc) {
				owned++
				if annotated {
					t.Errorf("%s: %s's doc promises caller ownership but the declaration is annotated %s",
						path, name, ReturnsPragma)
				}
			}
		}
	}
	// The patterns must keep biting: these floors track the surfaces the
	// borrow layer annotates today, so a reworded comment that slips out of
	// the reconciliation shows up as a count drop, not silent success.
	if borrowed < 5 {
		t.Errorf("borrow-prose pattern matched %d functions, want >= 5 (did a doc comment drift?)", borrowed)
	}
	if owned < 1 {
		t.Errorf("caller-owns pattern matched %d functions, want >= 1 (did NNLS's doc drift?)", owned)
	}
}
