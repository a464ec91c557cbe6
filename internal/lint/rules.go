package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ---------------------------------------------------------------------------
// Rule maprange: no output-order dependence on map iteration.
//
// Ranging over a map is fine for commutative accumulation (building another
// map, summing). It is a determinism bug as soon as the body emits anything
// ordered: printing, writing to an io.Writer, or appending to a result
// slice. The one exempt shape is the sorted-keys idiom — a loop that only
// collects the keys into a slice that a later sort.* / slices.* call orders.
// ---------------------------------------------------------------------------

type ruleMapRange struct{}

func (ruleMapRange) Name() string { return "maprange" }

// printLike are the fmt functions that produce ordered output.
var printLike = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Sprint": true, "Sprintf": true, "Sprintln": true,
}

// writerMethods are method names treated as io.Writer-style ordered sinks.
var writerMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

func (ruleMapRange) Check(m *Module, pkg *Package, report func(pos token.Pos, format string, args ...any)) {
	for _, file := range pkg.Files {
		fmtNames := importNames(file.AST, "fmt")
		ioNames := importNames(file.AST, "io")
		sortNames := append(importNames(file.AST, "sort"), importNames(file.AST, "slices")...)
		var stack []ast.Node
		ast.Inspect(file.AST, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			if rs, ok := n.(*ast.RangeStmt); ok {
				checkMapRange(pkg, rs, enclosingFuncBody(stack), fmtNames, ioNames, sortNames, report)
			}
			return true
		})
	}
}

// enclosingFuncBody returns the body of the innermost function on the stack.
func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch fn := stack[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

func checkMapRange(pkg *Package, rs *ast.RangeStmt, fnBody *ast.BlockStmt,
	fmtNames, ioNames, sortNames []string, report func(pos token.Pos, format string, args ...any)) {
	tv, ok := pkg.Info.Types[rs.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	var keyObj types.Object
	if id, ok := rs.Key.(*ast.Ident); ok && id.Name != "_" {
		keyObj = objectOf(pkg.Info, id)
	}

	// Taint scan of the loop body.
	var keyTargets []types.Object // slices receiving only the range key
	tainted := false
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		if tainted {
			return false
		}
		switch v := n.(type) {
		case *ast.CallExpr:
			if sel, ok := isPkgSelector(v.Fun, fmtNames); ok && printLike[sel.Sel.Name] && resolvesToPackage(pkg.Info, sel) {
				tainted = true
				report(rs.Pos(), "map iteration order leaks into output: fmt.%s inside range over map; iterate sorted keys instead", sel.Sel.Name)
				return false
			}
			if sel, ok := isPkgSelector(v.Fun, ioNames); ok && sel.Sel.Name == "WriteString" && resolvesToPackage(pkg.Info, sel) {
				tainted = true
				report(rs.Pos(), "map iteration order leaks into output: io.WriteString inside range over map; iterate sorted keys instead")
				return false
			}
			if sel, ok := v.Fun.(*ast.SelectorExpr); ok && writerMethods[sel.Sel.Name] {
				if s := pkg.Info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
					tainted = true
					report(rs.Pos(), "map iteration order leaks into output: %s call inside range over map; iterate sorted keys instead", sel.Sel.Name)
					return false
				}
			}
		case *ast.AssignStmt:
			if v.Tok != token.ASSIGN {
				return true
			}
			for i, lhs := range v.Lhs {
				if i >= len(v.Rhs) {
					break
				}
				target, appended, ok := appendSelf(pkg, lhs, v.Rhs[i])
				if !ok || target == nil {
					continue
				}
				// Only accumulation into slices that outlive the loop counts.
				if target.Pos() >= rs.Pos() && target.Pos() < rs.End() {
					continue
				}
				if keyObj != nil && len(appended) == 1 {
					if id, ok := appended[0].(*ast.Ident); ok && objectOf(pkg.Info, id) == keyObj {
						keyTargets = append(keyTargets, target)
						continue
					}
				}
				tainted = true
				report(rs.Pos(), "appending map-ordered values to %q inside range over map; iterate sorted keys instead", target.Name())
				return false
			}
		}
		return true
	})
	if tainted {
		return
	}
	// Sorted-keys idiom: the collected key slices must actually be sorted
	// after the loop.
	for _, target := range keyTargets {
		if !sortedAfter(pkg, fnBody, rs.End(), target, sortNames) {
			report(rs.Pos(), "map keys collected into %q but never sorted afterwards; sort before consuming", target.Name())
		}
	}
}

// appendSelf matches the accumulation form `x = append(x, args...)` and
// returns x's object plus the appended argument expressions.
func appendSelf(pkg *Package, lhs ast.Expr, rhs ast.Expr) (types.Object, []ast.Expr, bool) {
	lid, ok := lhs.(*ast.Ident)
	if !ok {
		return nil, nil, false
	}
	call, ok := rhs.(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return nil, nil, false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return nil, nil, false
	}
	arg0, ok := call.Args[0].(*ast.Ident)
	if !ok || arg0.Name != lid.Name {
		return nil, nil, false
	}
	return objectOf(pkg.Info, lid), call.Args[1:], true
}

// sortedAfter reports whether a sort./slices. call mentioning target appears
// after pos within the function body.
func sortedAfter(pkg *Package, fnBody *ast.BlockStmt, pos token.Pos, target types.Object, sortNames []string) bool {
	if fnBody == nil || len(sortNames) == 0 {
		return false
	}
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		if _, ok := isPkgSelector(call.Fun, sortNames); !ok {
			return true
		}
		ast.Inspect(call, func(inner ast.Node) bool {
			if id, ok := inner.(*ast.Ident); ok && objectOf(pkg.Info, id) == target {
				found = true
				return false
			}
			return true
		})
		return !found
	})
	return found
}

// ---------------------------------------------------------------------------
// Rule poolescape: pooled objects must not be retained across packages.
//
// A type fed by a free list (e.g. collect.hopCont) is recycled: the pointer is
// only valid while the object is live, and the owning package may hand the
// same memory to an unrelated caller later. Storing such a pointer in a
// struct field outside the owning package is a use-after-recycle bug
// waiting to happen.
// ---------------------------------------------------------------------------

type rulePoolEscape struct{}

func (rulePoolEscape) Name() string { return "poolescape" }

func (rulePoolEscape) Check(m *Module, pkg *Package, report func(pos token.Pos, format string, args ...any)) {
	pooled := m.pooledTypes()
	if len(pooled) == 0 {
		return
	}
	for _, file := range pkg.Files {
		ast.Inspect(file.AST, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				tv, ok := pkg.Info.Types[field.Type]
				if !ok || tv.Type == nil {
					continue
				}
				obj := typeReaches(tv.Type, namedIn(func(tn *types.TypeName) bool { return pooled[tn] }))
				if obj == nil || obj.Pkg() == pkg.Types {
					continue
				}
				report(field.Pos(), "struct field retains pooled %s.%s: pooled objects are recycled by their owning package and must not outlive the handler that releases them",
					obj.Pkg().Name(), obj.Name())
			}
			return true
		})
	}
}

// pooledTypes returns the module's pooled types: named types T for which
// some struct in T's own package keeps a free list — a field of type []T or
// []*T whose name contains "free" or "pool".
func (m *Module) pooledTypes() map[types.Object]bool {
	if m.pooled != nil {
		return m.pooled
	}
	m.pooled = map[types.Object]bool{}
	for _, pkg := range m.Packages {
		for _, file := range pkg.Files {
			ast.Inspect(file.AST, func(n ast.Node) bool {
				st, ok := n.(*ast.StructType)
				if !ok || st.Fields == nil {
					return true
				}
				for _, field := range st.Fields.List {
					if !freeListName(field.Names) {
						continue
					}
					tv, ok := pkg.Info.Types[field.Type]
					if !ok || tv.Type == nil {
						continue
					}
					slice, ok := tv.Type.Underlying().(*types.Slice)
					if !ok {
						continue
					}
					elem := slice.Elem()
					if ptr, ok := elem.(*types.Pointer); ok {
						elem = ptr.Elem()
					}
					named, ok := elem.(*types.Named)
					if !ok || named.Obj().Pkg() != pkg.Types {
						continue
					}
					m.pooled[named.Obj()] = true
				}
				return true
			})
		}
	}
	return m.pooled
}

// freeListName reports whether any field name marks a free list / pool.
func freeListName(names []*ast.Ident) bool {
	for _, n := range names {
		lower := strings.ToLower(n.Name)
		if strings.Contains(lower, "free") || strings.Contains(lower, "pool") {
			return true
		}
	}
	return false
}

// typeReaches walks a type's unnamed structure (pointer, slice, array, map
// key and value, channel and struct-field types) and returns the first
// named type that match accepts. It deliberately does not descend into named
// types' underlying structure: holding a *collect.Network (which owns a free
// list) is fine; holding a *collect.hopCont (which is on one) is not. match
// sees every type on the walk, unnamed ones included, so it can also accept
// a composite shape such as a map keyed by a given type.
func typeReaches(t types.Type, match func(types.Type) *types.TypeName) *types.TypeName {
	var walk func(t types.Type, depth int) *types.TypeName
	walk = func(t types.Type, depth int) *types.TypeName {
		if depth > 8 {
			return nil
		}
		if tn := match(t); tn != nil {
			return tn
		}
		switch v := t.(type) {
		case *types.Pointer:
			return walk(v.Elem(), depth+1)
		case *types.Slice:
			return walk(v.Elem(), depth+1)
		case *types.Array:
			return walk(v.Elem(), depth+1)
		case *types.Chan:
			return walk(v.Elem(), depth+1)
		case *types.Map:
			if tn := walk(v.Key(), depth+1); tn != nil {
				return tn
			}
			return walk(v.Elem(), depth+1)
		case *types.Struct:
			for i := 0; i < v.NumFields(); i++ {
				if tn := walk(v.Field(i).Type(), depth+1); tn != nil {
					return tn
				}
			}
		}
		return nil
	}
	return walk(t, 0)
}

// namedIn returns a matcher for typeReaches that accepts the named types
// whose object satisfies in.
func namedIn(in func(*types.TypeName) bool) func(types.Type) *types.TypeName {
	return func(t types.Type) *types.TypeName {
		if named, ok := t.(*types.Named); ok && in(named.Obj()) {
			return named.Obj()
		}
		return nil
	}
}

// ---------------------------------------------------------------------------
// Rule densebound: per-link state is indexed by topo.LinkTable.
//
// The estimation pipeline and the simulator's per-hop layers (radio link
// models, routing neighbour tables) keep per-link and per-neighbour state in
// flat vectors indexed by the topology's immutable link table; a
// map[topo.Link] or map[topo.NodeID] struct field in these packages
// reintroduces the hashing and allocation churn the dense refactors removed
// (DESIGN.md "Dense link indexing"). Deliberate boundary shapes can carry a
// //dophy:allow densebound waiver.
// ---------------------------------------------------------------------------

type ruleDenseBound struct{}

func (ruleDenseBound) Name() string { return "densebound" }

// denseBoundRestricted are the module-relative package prefixes whose
// per-link state must be dense.
var denseBoundRestricted = []string{"internal/tomo", "internal/trace", "internal/experiment", "internal/radio", "internal/routing"}

func (ruleDenseBound) Check(m *Module, pkg *Package, report func(pos token.Pos, format string, args ...any)) {
	restricted := false
	for _, p := range denseBoundRestricted {
		if pkg.RelPath == p || strings.HasPrefix(pkg.RelPath, p+"/") {
			restricted = true
			break
		}
	}
	if !restricted {
		return
	}
	for _, file := range pkg.Files {
		ast.Inspect(file.AST, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				tv, ok := pkg.Info.Types[field.Type]
				if !ok || tv.Type == nil {
					continue
				}
				if obj := typeReaches(tv.Type, linkKeyed(m)); obj != nil {
					report(field.Pos(), "struct field keyed by %s.%s: per-link state in %s is dense, indexed by topo.LinkTable",
						obj.Pkg().Name(), obj.Name(), pkg.RelPath)
				}
			}
			return true
		})
	}
}

// linkKeyed matches a map keyed by the topology package's Link or NodeID
// type: a node's neighbours are its out-links, so a NodeID-keyed neighbour
// map is per-link state too.
func linkKeyed(m *Module) func(types.Type) *types.TypeName {
	return func(t types.Type) *types.TypeName {
		mt, ok := t.(*types.Map)
		if !ok {
			return nil
		}
		if named, ok := mt.Key().(*types.Named); ok {
			obj := named.Obj()
			if (obj.Name() == "Link" || obj.Name() == "NodeID") && obj.Pkg() != nil && obj.Pkg().Path() == m.Path+"/internal/topo" {
				return obj
			}
		}
		return nil
	}
}

// resolvesToPackage confirms (when type information is available) that the
// selector's base identifier really is a package name and not a shadowing
// local variable. With no resolution recorded it errs on the side of
// reporting.
func resolvesToPackage(info *types.Info, sel *ast.SelectorExpr) bool {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	if obj := info.Uses[id]; obj != nil {
		_, isPkg := obj.(*types.PkgName)
		return isPkg
	}
	return true
}
