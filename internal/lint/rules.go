package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

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
