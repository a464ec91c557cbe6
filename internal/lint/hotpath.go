package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ---------------------------------------------------------------------------
// Rule hotpathalloc: annotated hot paths stay allocation-free, transitively.
//
// A function whose declaration carries //dophy:hotpath — and every function
// it statically reaches through the call graph — must avoid constructs that
// allocate per call: make/new, escaping or map/slice composite literals,
// appends that grow fresh local slices, closures, string concatenation,
// fmt-style formatting, []byte/string conversions, and boxing a non-pointer
// value into an interface. Amortised growth of receiver-owned scratch
// (append to fields and parameters, re-sliced [:0] buffers) passes: that is
// the idiom the zero-alloc refactors established. Indirect calls whose
// callees cannot be proven are reported too — soundness over silence — and
// are waived where the dispatch point's handlers are themselves annotated.
//
// The runtime allocation tests (TestExperimentAllocBudget and the
// per-package NoAlloc tests) catch allocation regressions after the fact;
// this rule catches them at review time, with the full call chain from the
// annotated root in the diagnostic.
// ---------------------------------------------------------------------------

type ruleHotPathAlloc struct{}

func (ruleHotPathAlloc) Name() string { return "hotpathalloc" }

// hotDiag is one pending diagnostic, attributed to the package it lives in
// so the per-package Check can emit it through that package's reporter.
type hotDiag struct {
	pkg    *Package
	pos    token.Pos
	format string
	args   []any
}

func (ruleHotPathAlloc) Check(m *Module, pkg *Package, report func(pos token.Pos, format string, args ...any)) {
	for _, d := range m.hotPathDiags() {
		if d.pkg == pkg {
			report(d.pos, d.format, d.args...)
		}
	}
}

// hotPathDiags computes (once per Module) every hotpathalloc diagnostic.
func (m *Module) hotPathDiags() []hotDiag {
	if m.hotDiags != nil {
		return *m.hotDiags
	}
	var diags []hotDiag
	m.hotDiags = &diags

	cg := m.CallGraph()
	roots := cg.HotFuncs()
	if len(roots) == 0 {
		return diags
	}

	// BFS from all hot roots at once over verifiable edges, so each node's
	// recorded chain is a shortest path from the nearest annotation.
	type visit struct {
		node *FuncNode
		via  *visit // caller's visit record
		pos  token.Pos
	}
	visited := map[*FuncNode]*visit{}
	var queue []*visit
	for _, r := range roots {
		v := &visit{node: r}
		visited[r] = v
		queue = append(queue, v)
	}
	chainOf := func(v *visit) string {
		var parts []string
		for cur := v; cur != nil; cur = cur.via {
			parts = append(parts, cur.node.Name())
		}
		for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
			parts[i], parts[j] = parts[j], parts[i]
		}
		return strings.Join(parts, " -> ")
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		node := v.node
		chain := chainOf(v)

		scanHotBody(node, chain, &diags)

		// Call sites inside panic arguments are crash paths, not hot paths.
		cold := panicArgRanges(node)
		// Function-value call sites: positions with candidates, and positions
		// whose candidate set is unproven (an EdgeUnresolved sibling).
		hasUnres := map[token.Pos]bool{}
		for i := range node.Calls {
			if node.Calls[i].Kind == EdgeUnresolved {
				hasUnres[node.Calls[i].Pos] = true
			}
		}
		reported := map[token.Pos]bool{}
		descend := func(e *Edge) {
			if e.Callee == nil || visited[e.Callee] != nil {
				return
			}
			next := &visit{node: e.Callee, via: v, pos: e.Pos}
			visited[e.Callee] = next
			queue = append(queue, next)
		}
		for i := range node.Calls {
			e := &node.Calls[i]
			if cold.contains(e.Pos) {
				continue
			}
			switch e.Kind {
			case EdgeDirect, EdgeInterface:
				descend(e)
			case EdgeFuncValue:
				// Candidates are traversed only when the set is provably
				// complete; otherwise the site itself is reported (once)
				// through its EdgeUnresolved sibling below.
				if !hasUnres[e.Pos] {
					descend(e)
				}
			case EdgeUnresolved:
				if reported[e.Pos] {
					continue
				}
				reported[e.Pos] = true
				diags = append(diags, hotDiag{
					pkg: node.Pkg, pos: e.Pos,
					format: "indirect call on hot path (%s): callees cannot be statically verified allocation-free",
					args:   []any{chain},
				})
			case EdgeExternal:
				if reason := allocExternal(e.Ext); reason != "" {
					diags = append(diags, hotDiag{
						pkg: node.Pkg, pos: e.Pos,
						format: "call to %s on hot path (%s): %s",
						args:   []any{extName(e.Ext), chain, reason},
					})
				}
			}
		}
	}

	sort.SliceStable(diags, func(i, j int) bool { return diags[i].pos < diags[j].pos })
	return diags
}

// posRange is a half-open source span [lo, hi).
type posRange struct{ lo, hi token.Pos }

type posRanges []posRange

func (r posRanges) contains(p token.Pos) bool {
	for _, iv := range r {
		if p >= iv.lo && p < iv.hi {
			return true
		}
	}
	return false
}

// panicArgRanges returns the spans of all panic(...) arguments in node's
// body: constructing a panic message is a crash path, exempt from the
// allocation discipline.
func panicArgRanges(n *FuncNode) posRanges {
	var out posRanges
	if n.Decl.Body == nil {
		return out
	}
	info := n.Pkg.Info
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return true
		}
		if b, isB := info.Uses[id].(*types.Builtin); !isB || b.Name() != "panic" {
			return true
		}
		for _, arg := range call.Args {
			out = append(out, posRange{arg.Pos(), arg.End()})
		}
		return true
	})
	return out
}

func extName(fn *types.Func) string {
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// allocExternal reports why a call to an out-of-module function allocates
// on every call ("" = not a known allocator). The list is deliberately
// small and certain: formatting and error construction.
func allocExternal(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	switch fn.Pkg().Path() {
	case "fmt":
		return "fmt formatting allocates (and boxes every operand)"
	case "errors":
		if fn.Name() == "New" {
			return "errors.New allocates a fresh error value"
		}
	case "strconv":
		switch {
		case strings.HasPrefix(fn.Name(), "Format"),
			strings.HasPrefix(fn.Name(), "Quote"),
			fn.Name() == "Itoa":
			return "strconv string construction allocates; use an Append* variant into owned scratch"
		}
	}
	return ""
}

// scanHotBody reports the allocation-inducing constructs in one reachable
// function body. chain is the call path from the nearest hot annotation.
func scanHotBody(node *FuncNode, chain string, diags *[]hotDiag) {
	body := node.Decl.Body
	if body == nil {
		return
	}
	pkg := node.Pkg
	info := pkg.Info

	emit := func(pos token.Pos, format string, args ...any) {
		args = append(args, chain)
		*diags = append(*diags, hotDiag{pkg: pkg, pos: pos, format: format + " [hot path: %s]", args: args})
	}

	// Locals declared empty ("var x []T" / "x := []T(nil)"): appending to
	// them grows a fresh slice every call — the opposite of the reusable
	// scratch idiom.
	freshLocals := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.DeclStmt:
			gd, ok := v.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) > 0 {
					continue
				}
				for _, name := range vs.Names {
					obj := info.Defs[name]
					if obj == nil {
						continue
					}
					if _, isSlice := obj.Type().Underlying().(*types.Slice); isSlice {
						freshLocals[obj] = true
					}
				}
			}
		}
		return true
	})

	// Track panic-argument subtrees: constructing the panic message is a
	// crash path, not a hot path.
	var panicDepth int
	var funcSigs []*types.Signature // enclosing function/literal results, innermost last
	if sig, ok := node.Fn.Type().(*types.Signature); ok {
		funcSigs = append(funcSigs, sig)
	}

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if n == nil {
			return true
		}
		switch v := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(v.Fun).(*ast.Ident); ok {
				if b, isB := info.Uses[id].(*types.Builtin); isB {
					switch b.Name() {
					case "panic":
						panicDepth++
						for _, arg := range v.Args {
							ast.Inspect(arg, walk)
						}
						panicDepth--
						return false
					case "make":
						if panicDepth == 0 {
							emit(v.Pos(), "make allocates per call")
						}
						return true
					case "new":
						if panicDepth == 0 {
							emit(v.Pos(), "new allocates per call")
						}
						return true
					case "append":
						if panicDepth == 0 {
							checkHotAppend(pkg, v, freshLocals, emit)
						}
						return true
					}
				}
			}
			if panicDepth == 0 {
				checkConversionAlloc(pkg, v, emit)
				checkCallBoxing(pkg, v, emit)
			}
		case *ast.CompositeLit:
			if panicDepth > 0 {
				return true
			}
			tv, ok := info.Types[v]
			if !ok || tv.Type == nil {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Map:
				emit(v.Pos(), "map literal allocates per call")
			case *types.Slice:
				emit(v.Pos(), "slice literal allocates per call")
			}
		case *ast.UnaryExpr:
			if panicDepth > 0 {
				return true
			}
			if v.Op == token.AND {
				if _, isLit := ast.Unparen(v.X).(*ast.CompositeLit); isLit {
					emit(v.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.FuncLit:
			if panicDepth == 0 {
				emit(v.Pos(), "closure allocates per call (capture environment)")
			}
			if tv, ok := info.Types[v]; ok {
				if sig, ok := tv.Type.(*types.Signature); ok {
					funcSigs = append(funcSigs, sig)
					ast.Inspect(v.Body, walk)
					funcSigs = funcSigs[:len(funcSigs)-1]
					return false
				}
			}
		case *ast.BinaryExpr:
			if panicDepth == 0 && v.Op == token.ADD && isNonConstString(info, v) {
				emit(v.Pos(), "string concatenation allocates per call")
			}
		case *ast.AssignStmt:
			if panicDepth == 0 && v.Tok == token.ADD_ASSIGN && len(v.Lhs) == 1 && isStringType(info, v.Lhs[0]) {
				emit(v.Pos(), "string += allocates per call")
			}
			if panicDepth == 0 {
				checkAssignBoxing(pkg, v, emit)
			}
		case *ast.ValueSpec:
			if panicDepth == 0 {
				checkSpecBoxing(pkg, v, emit)
			}
		case *ast.ReturnStmt:
			if panicDepth == 0 && len(funcSigs) > 0 {
				checkReturnBoxing(pkg, v, funcSigs[len(funcSigs)-1], emit)
			}
		}
		return true
	}
	ast.Inspect(body, walk)
}

// checkHotAppend flags appends that grow a slice declared empty in the
// same function — a per-call allocation. Appends to parameters, fields and
// re-sliced scratch pass (amortised growth of owned storage).
func checkHotAppend(pkg *Package, call *ast.CallExpr, freshLocals map[types.Object]bool, emit func(pos token.Pos, format string, args ...any)) {
	if len(call.Args) == 0 {
		return
	}
	base, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return
	}
	if obj := objectOf(pkg.Info, base); obj != nil && freshLocals[obj] {
		emit(call.Pos(), "append grows fresh local slice %q per call; reuse owned scratch or pre-size", base.Name)
	}
}

// checkConversionAlloc flags string<->[]byte/[]rune conversions, which
// copy their operand.
func checkConversionAlloc(pkg *Package, call *ast.CallExpr, emit func(pos token.Pos, format string, args ...any)) {
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return
	}
	to := tv.Type.Underlying()
	argTV, ok := pkg.Info.Types[call.Args[0]]
	if !ok || argTV.Type == nil {
		return
	}
	from := argTV.Type.Underlying()
	_, toSlice := to.(*types.Slice)
	_, fromSlice := from.(*types.Slice)
	if (isStringBasic(to) && fromSlice) || (toSlice && isStringBasic(from)) {
		emit(call.Pos(), "string/slice conversion copies per call")
	}
}

func isStringBasic(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// boxes reports whether assigning a value of type from to a variable of
// type to stores a concrete value in an interface, which allocates unless
// the value is pointer-shaped (the pointer itself is stored inline).
func boxes(from, to types.Type) bool {
	if from == nil || to == nil {
		return false
	}
	if _, ok := to.Underlying().(*types.Interface); !ok {
		return false
	}
	if _, ok := from.Underlying().(*types.Interface); ok {
		return false // interface-to-interface copies the existing box
	}
	if b, ok := from.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return false
	}
	switch from.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false // pointer-shaped: stored inline in the interface word
	}
	return true
}

func checkCallBoxing(pkg *Package, call *ast.CallExpr, emit func(pos token.Pos, format string, args ...any)) {
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok || tv.Type == nil || tv.IsType() {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var paramType types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				paramType = sig.Params().At(np - 1).Type() // []T passed whole
			} else if slice, ok := sig.Params().At(np - 1).Type().(*types.Slice); ok {
				paramType = slice.Elem()
			}
		case i < np:
			paramType = sig.Params().At(i).Type()
		}
		argTV, ok := pkg.Info.Types[arg]
		if !ok {
			continue
		}
		if boxes(argTV.Type, paramType) {
			emit(arg.Pos(), "argument boxes %s into interface %s", typeStr(argTV.Type), typeStr(paramType))
		}
	}
}

func checkAssignBoxing(pkg *Package, as *ast.AssignStmt, emit func(pos token.Pos, format string, args ...any)) {
	if as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Lhs {
		lhsTV, ok1 := pkg.Info.Types[as.Lhs[i]]
		rhsTV, ok2 := pkg.Info.Types[as.Rhs[i]]
		if !ok1 || !ok2 {
			continue
		}
		if boxes(rhsTV.Type, lhsTV.Type) {
			emit(as.Rhs[i].Pos(), "assignment boxes %s into interface %s", typeStr(rhsTV.Type), typeStr(lhsTV.Type))
		}
	}
}

func checkSpecBoxing(pkg *Package, vs *ast.ValueSpec, emit func(pos token.Pos, format string, args ...any)) {
	if vs.Type == nil {
		return
	}
	declTV, ok := pkg.Info.Types[vs.Type]
	if !ok || declTV.Type == nil {
		return
	}
	for _, val := range vs.Values {
		valTV, ok := pkg.Info.Types[val]
		if !ok {
			continue
		}
		if boxes(valTV.Type, declTV.Type) {
			emit(val.Pos(), "declaration boxes %s into interface %s", typeStr(valTV.Type), typeStr(declTV.Type))
		}
	}
}

func checkReturnBoxing(pkg *Package, ret *ast.ReturnStmt, sig *types.Signature, emit func(pos token.Pos, format string, args ...any)) {
	if sig == nil || len(ret.Results) != sig.Results().Len() {
		return
	}
	for i, res := range ret.Results {
		resTV, ok := pkg.Info.Types[res]
		if !ok {
			continue
		}
		if boxes(resTV.Type, sig.Results().At(i).Type()) {
			emit(res.Pos(), "return boxes %s into interface %s", typeStr(resTV.Type), typeStr(sig.Results().At(i).Type()))
		}
	}
}

func typeStr(t types.Type) string {
	if t == nil {
		return "<unknown>"
	}
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

func isNonConstString(info *types.Info, expr ast.Expr) bool {
	tv, ok := info.Types[expr]
	return ok && tv.Type != nil && isStringBasic(tv.Type.Underlying()) && tv.Value == nil
}

func isStringType(info *types.Info, expr ast.Expr) bool {
	tv, ok := info.Types[expr]
	return ok && tv.Type != nil && isStringBasic(tv.Type.Underlying())
}
