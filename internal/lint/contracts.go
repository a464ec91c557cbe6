package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the concurrency-contract prover: a declarative annotation
// layer plus the three rules (ownercross, sendown, barrierorder) that check
// it. Together with determflow's goroutine report it replaces the old
// hand-listed package sanction: a package may spawn goroutines only from a
// file that declares
//
//	//dophy:concurrency-boundary -- <why this boundary preserves determinism>
//
// and declaring the boundary opts the whole package into contract checking.
//
// Annotation grammar:
//
//	//dophy:owner shard|engine|window|immutable   on struct fields (doc or
//	    trailing comment) and — shard only — on type declarations.
//	//dophy:window    in a func doc comment: the function runs inside a
//	    parallel window (handler/callback context a goroutine reaches).
//	//dophy:barrier   in a func doc comment: the function runs on the
//	    coordinator with every worker parked (a happens-before point).
//	//dophy:transfers on (or directly above) a channel send, an append, or a
//	    call: ownership of the reference-typed values moves with the
//	    statement and the sender must not touch them afterwards.
//
// Ownership domains:
//
//   - shard: confined to one shard. Window code may only touch such a field
//     through an element index of static type topo.ShardID or topo.NodeID
//     (the owned-node masks of topo.Partition make those projections
//     per-shard disjoint); coordinator code may touch it only inside a
//     //dophy:barrier (or New*/init) function.
//   - engine: coordinator-local. Window code may not touch it at all.
//   - window: frozen while a window runs. Window code may read it; only
//     barrier (or New*/init) functions may write it.
//   - immutable: written only during construction (New*/init), readable
//     anywhere without synchronisation.
//
// The window-phase set W of a boundary package is computed from the PR 4
// call graph: targets of go statements, functions containing goroutine
// literals, and //dophy:window-annotated functions, closed under
// same-package direct and interface call edges. Dynamic dispatch into
// window context (sim.Handler values) is invisible to that closure and must
// be annotated //dophy:window explicitly.
const (
	// BoundaryPragma sanctions goroutines in the file that carries it and
	// requires the package to pass the contract rules.
	BoundaryPragma = "//dophy:concurrency-boundary"
	// OwnerPragma assigns an ownership domain to a field or type.
	OwnerPragma = "//dophy:owner"
	// TransferPragma marks a statement that moves ownership of its
	// reference-typed operands to another goroutine (or a pool).
	TransferPragma = "//dophy:transfers"
	// WindowPragma marks a function as window-phase code.
	WindowPragma = "//dophy:window"
	// BarrierPragma marks a function as a coordinator-side barrier.
	BarrierPragma = "//dophy:barrier"
)

// ownerDomain is one ownership class of the contract lattice.
type ownerDomain uint8

const (
	ownNone ownerDomain = iota
	ownShard
	ownEngine
	ownWindow
	ownImmutable
)

var ownerNames = [...]string{"", "shard", "engine", "window", "immutable"}

func (d ownerDomain) String() string { return ownerNames[d] }

func parseOwnerDomain(s string) ownerDomain {
	for d, name := range ownerNames {
		if d != 0 && name == s {
			return ownerDomain(d)
		}
	}
	return ownNone
}

// directiveArg matches text against a //dophy: directive prefix and returns
// the trimmed remainder. The prefix must be followed by whitespace or
// nothing, so near-misses like //dophy:ownerx do not match.
func directiveArg(text, prefix string) (string, bool) {
	rest, ok := strings.CutPrefix(text, prefix)
	if !ok {
		return "", false
	}
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return "", false
	}
	return strings.TrimSpace(rest), true
}

// boundaryFile is one file carrying a //dophy:concurrency-boundary pragma.
type boundaryFile struct {
	pkg     *Package
	pos     token.Pos
	reason  string
	goStmts int // go statements in the file; zero means the pragma is stale
}

// ownerAnn is one parsed //dophy:owner annotation.
type ownerAnn struct {
	dom ownerDomain
	pos token.Pos
}

// annotatedField keeps field annotations in deterministic source order for
// the clash check (maps alone would make diagnostics order-unstable).
type annotatedField struct {
	obj *types.Var
	dom ownerDomain
	pos token.Pos
	pkg *Package
}

// transferAnn is one //dophy:transfers pragma awaiting statement attachment.
type transferAnn struct {
	pkg     *Package
	pos     token.Pos
	file    string // position filename, for line matching
	line    int
	matched bool
}

// contractDiag is one precomputed contract diagnostic, replayed per package
// (and per Run, so waiver pragmas apply) by the owning rule.
type contractDiag struct {
	rule string
	pkg  *Package
	pos  token.Pos
	msg  string
}

// contractInfo is the module's parsed annotation set. It is independent of
// the call graph and cheap to build, so determflow can consult the boundary
// map without forcing the full analysis.
type contractInfo struct {
	boundary    map[*File]*boundaryFile
	boundaryPkg map[*Package]bool
	fieldOwner  map[*types.Var]ownerAnn
	typeOwner   map[*types.TypeName]ownerAnn
	fieldAnns   []annotatedField
	transfers   []*transferAnn
	// annDiags are malformed-annotation and boundary hygiene diagnostics,
	// produced during collection.
	annDiags []contractDiag
}

// contractInfo parses (once) every contract annotation in the module.
func (m *Module) contractInfo() *contractInfo {
	if m.conInfo != nil {
		return m.conInfo
	}
	c := &contractInfo{
		boundary:    map[*File]*boundaryFile{},
		boundaryPkg: map[*Package]bool{},
		fieldOwner:  map[*types.Var]ownerAnn{},
		typeOwner:   map[*types.TypeName]ownerAnn{},
	}
	m.conInfo = c
	for _, pkg := range m.Packages {
		for _, file := range pkg.Files {
			c.collectFile(m, pkg, file)
		}
	}
	// Boundary hygiene, filed under determflow (which owns the goroutine
	// report the pragma silences): a boundary needs a justification, and a
	// boundary that spawns nothing protects nothing.
	for _, pkg := range m.Packages {
		for _, file := range pkg.Files {
			bf := c.boundary[file]
			if bf == nil {
				continue
			}
			if bf.reason == "" {
				c.annDiags = append(c.annDiags, contractDiag{rule: determRuleName, pkg: pkg, pos: bf.pos,
					msg: "concurrency-boundary pragma has no justification; append ' -- <why this boundary preserves determinism>'"})
			}
			if bf.goStmts == 0 {
				c.annDiags = append(c.annDiags, contractDiag{rule: determRuleName, pkg: pkg, pos: bf.pos,
					msg: "file declares a concurrency boundary but spawns no goroutines; delete the pragma"})
			}
		}
	}
	return c
}

// collectFile gathers one file's boundary pragma, owner annotations and
// transfer pragmas.
func (c *contractInfo) collectFile(m *Module, pkg *Package, file *File) {
	f := file.AST
	// Boundary and transfer pragmas can sit in any comment group — except
	// that a //dophy:transfers attached to a struct field is the effect
	// layer's field-level form (effects.go), not a statement annotation.
	fieldComments := structFieldTransferComments(f)
	for _, cg := range f.Comments {
		for _, cm := range cg.List {
			if fieldComments[cm] {
				continue
			}
			if arg, ok := directiveArg(cm.Text, BoundaryPragma); ok {
				if c.boundary[file] == nil {
					_, reason, _ := strings.Cut(arg, "--")
					bf := &boundaryFile{pkg: pkg, pos: cm.Pos(), reason: strings.TrimSpace(reason)}
					ast.Inspect(f, func(n ast.Node) bool {
						if _, isGo := n.(*ast.GoStmt); isGo {
							bf.goStmts++
						}
						return true
					})
					c.boundary[file] = bf
					c.boundaryPkg[pkg] = true
				}
				continue
			}
			if _, ok := directiveArg(cm.Text, TransferPragma); ok {
				p := m.Fset.Position(cm.Pos())
				c.transfers = append(c.transfers, &transferAnn{pkg: pkg, pos: cm.Pos(), file: p.Filename, line: p.Line})
			}
		}
	}
	// Owner annotations on type declarations.
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			docs := []*ast.CommentGroup{ts.Doc, ts.Comment}
			if len(gd.Specs) == 1 {
				docs = append(docs, gd.Doc)
			}
			for _, doc := range docs {
				dom, pos, bad := ownerFromDoc(doc)
				if bad != "" {
					c.annDiags = append(c.annDiags, contractDiag{rule: "ownercross", pkg: pkg, pos: pos, msg: bad})
					continue
				}
				if dom == ownNone {
					continue
				}
				if dom != ownShard {
					c.annDiags = append(c.annDiags, contractDiag{rule: "ownercross", pkg: pkg, pos: pos,
						msg: fmt.Sprintf("//dophy:owner %s does not apply to type declarations; only shard confinement is type-level", dom)})
					continue
				}
				if tn, ok := pkg.Info.Defs[ts.Name].(*types.TypeName); ok {
					c.typeOwner[tn] = ownerAnn{dom: dom, pos: pos}
				}
			}
		}
	}
	// Owner annotations on struct fields.
	ast.Inspect(f, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok || st.Fields == nil {
			return true
		}
		for _, field := range st.Fields.List {
			for _, doc := range []*ast.CommentGroup{field.Doc, field.Comment} {
				dom, pos, bad := ownerFromDoc(doc)
				if bad != "" {
					c.annDiags = append(c.annDiags, contractDiag{rule: "ownercross", pkg: pkg, pos: pos, msg: bad})
					continue
				}
				if dom == ownNone {
					continue
				}
				if len(field.Names) == 0 {
					c.annDiags = append(c.annDiags, contractDiag{rule: "ownercross", pkg: pkg, pos: pos,
						msg: "//dophy:owner on embedded fields is not supported; name the field"})
					continue
				}
				for _, name := range field.Names {
					if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
						c.fieldOwner[v] = ownerAnn{dom: dom, pos: pos}
						c.fieldAnns = append(c.fieldAnns, annotatedField{obj: v, dom: dom, pos: field.Pos(), pkg: pkg})
					}
				}
			}
		}
		return true
	})
}

// ownerFromDoc extracts at most one owner annotation from a comment group.
func ownerFromDoc(doc *ast.CommentGroup) (dom ownerDomain, pos token.Pos, malformed string) {
	if doc == nil {
		return ownNone, token.NoPos, ""
	}
	for _, cm := range doc.List {
		arg, ok := directiveArg(cm.Text, OwnerPragma)
		if !ok {
			continue
		}
		spec, _, _ := strings.Cut(arg, "--")
		fields := strings.Fields(spec)
		if len(fields) != 1 {
			return ownNone, cm.Pos(), "malformed //dophy:owner: want exactly one domain (shard, engine, window or immutable)"
		}
		d := parseOwnerDomain(fields[0])
		if d == ownNone {
			return ownNone, cm.Pos(), fmt.Sprintf("malformed //dophy:owner: unknown domain %q (want shard, engine, window or immutable)", fields[0])
		}
		return d, cm.Pos(), ""
	}
	return ownNone, token.NoPos, ""
}

// fnCtx classifies a function for contract checking.
type fnCtx uint8

const (
	ctxOther   fnCtx = iota // coordinator code between windows, unannotated
	ctxWindow               // in the window-phase set W
	ctxBarrier              // //dophy:barrier
	ctxInit                 // New*/new*/init: construction, pre-concurrency
)

func isInitLike(name string) bool {
	return strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new") || name == "init"
}

// contractDiags runs (once) the whole-module contract analysis and caches
// the diagnostics; the three rules replay them per package so per-Run
// waiver filtering applies — the same pattern hotpathalloc uses.
func (m *Module) contractDiags() []contractDiag {
	if m.conDone {
		return m.conDiags
	}
	m.conDone = true
	c := m.contractInfo()
	cg := m.CallGraph()
	diags := append([]contractDiag{}, c.annDiags...)
	add := func(rule string, pkg *Package, pos token.Pos, format string, args ...any) {
		diags = append(diags, contractDiag{rule: rule, pkg: pkg, pos: pos, msg: fmt.Sprintf(format, args...)})
	}

	// Window-phase set W: goroutine targets, goroutine-literal spawners and
	// //dophy:window functions of boundary packages, closed under
	// same-package direct/interface call edges.
	inW := map[*FuncNode]bool{}
	var queue []*FuncNode
	addW := func(n *FuncNode) {
		if n != nil && !inW[n] {
			inW[n] = true
			queue = append(queue, n)
		}
	}
	for _, n := range cg.order {
		if (n.Window || n.Barrier) && !c.boundaryPkg[n.Pkg] {
			which := "window"
			pos := n.WindowPos
			if n.Barrier {
				which, pos = "barrier", n.BarrierPos
			}
			add("barrierorder", n.Pkg, pos,
				"//dophy:%s annotation outside a //dophy:concurrency-boundary package has no effect", which)
			continue
		}
		if !c.boundaryPkg[n.Pkg] {
			continue
		}
		if n.Window {
			addW(n)
		}
		if n.Decl.Body == nil {
			continue
		}
		for _, e := range n.Calls {
			if e.Go && e.Callee != nil && e.Callee.Pkg == n.Pkg {
				addW(e.Callee)
			}
		}
		ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
			g, ok := x.(*ast.GoStmt)
			if !ok {
				return true
			}
			if _, isLit := ast.Unparen(g.Call.Fun).(*ast.FuncLit); isLit {
				// The literal's body is attributed to the encloser, so the
				// whole function is treated as window code.
				addW(n)
			}
			return true
		})
	}
	for qi := 0; qi < len(queue); qi++ {
		n := queue[qi]
		for _, e := range n.Calls {
			if e.Callee != nil && e.Callee.Pkg == n.Pkg && (e.Kind == EdgeDirect || e.Kind == EdgeInterface) {
				addW(e.Callee)
			}
		}
	}

	// Barrier sanity: a barrier cannot run inside the window it closes.
	for _, n := range cg.order {
		if !n.Barrier || !c.boundaryPkg[n.Pkg] {
			continue
		}
		if n.Window {
			add("barrierorder", n.Pkg, n.BarrierPos, "%s is annotated both //dophy:window and //dophy:barrier", n.Fn.Name())
		} else if inW[n] {
			add("barrierorder", n.Pkg, n.BarrierPos,
				"//dophy:barrier function %s is reachable from window code: a barrier cannot run inside the window it closes", n.Fn.Name())
		}
	}

	// Owner-clash: a coordinator-side or immutable field must not smuggle a
	// shard-confined type across the boundary.
	shardConfined := namedIn(func(tn *types.TypeName) bool { return c.typeOwner[tn].dom == ownShard })
	for _, fa := range c.fieldAnns {
		if fa.dom == ownShard {
			continue
		}
		if tn := typeReaches(fa.obj.Type(), shardConfined); tn != nil {
			add("ownercross", fa.pkg, fa.pos,
				"field %s is //dophy:owner %s but holds shard-confined type %s", fa.obj.Name(), fa.dom, tn.Name())
		}
	}

	// Per-function field-access checks.
	for _, n := range cg.order {
		if n.Decl.Body == nil {
			continue
		}
		ctx := ctxOther
		switch {
		case inW[n]:
			ctx = ctxWindow
		case n.Barrier:
			ctx = ctxBarrier
		case isInitLike(n.Fn.Name()):
			ctx = ctxInit
		}
		m.checkFieldAccesses(n, ctx, c, add)
	}

	// Transfer pragmas and post-transfer uses (sendown).
	for _, n := range cg.order {
		if n.Decl.Body == nil {
			continue
		}
		m.checkTransfers(n, c, add)
	}
	for _, ta := range c.transfers {
		if !ta.matched {
			add("sendown", ta.pkg, ta.pos,
				"//dophy:transfers attaches to no statement; place it on (or directly above) a send, append or call")
		}
	}

	m.conDiags = diags
	return diags
}

// indexable reports whether an element-wise projection of t is possible.
func indexable(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Array, *types.Map:
		return true
	}
	return false
}

// checkFieldAccesses applies the ownership table to every annotated-field
// access in n's body (closures included: they execute in their encloser's
// context).
func (m *Module) checkFieldAccesses(n *FuncNode, ctx fnCtx, c *contractInfo, add func(rule string, pkg *Package, pos token.Pos, format string, args ...any)) {
	info := n.Pkg.Info
	var stack []ast.Node
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		if x == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, x)
		sel, ok := x.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s := info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return true
		}
		obj, _ := s.Obj().(*types.Var)
		ann, annotated := c.fieldOwner[obj]
		if !annotated {
			return true
		}
		name := obj.Name()

		// Climb to the effective access: an element access through an index
		// directly on the field is the projected form shard fields require.
		target := ast.Node(sel)
		pi := len(stack) - 2
		indexed := false
		var idx ast.Expr
		if pi >= 0 {
			if ie, ok := stack[pi].(*ast.IndexExpr); ok && ie.X == sel {
				indexed, idx, target = true, ie.Index, ie
				pi--
			}
		}
		write := false
		if pi >= 0 {
			switch p := stack[pi].(type) {
			case *ast.AssignStmt:
				for _, lhs := range p.Lhs {
					if lhs == target {
						write = true
					}
				}
			case *ast.IncDecStmt:
				if p.X == target {
					write = true
				}
			case *ast.UnaryExpr:
				if p.Op == token.AND && p.X == target {
					write = true
				}
			}
		}

		switch ann.dom {
		case ownNone:
			// fieldOwner never stores ownNone; named for exhaustiveness.
		case ownShard:
			switch ctx {
			case ctxWindow:
				if !indexed || !indexable(obj.Type()) {
					add("ownercross", n.Pkg, sel.Sel.Pos(),
						"shard-owned field %s must be accessed through a typed element index (topo.ShardID or topo.NodeID) in window code", name)
					break
				}
				var it types.Type
				if tv, ok := info.Types[idx]; ok {
					it = tv.Type
				}
				if d := m.typeDomain(it); d != DomShard && d != DomNodeID {
					add("ownercross", n.Pkg, idx.Pos(),
						"shard-owned field %s is indexed by untyped %s in window code; project through topo.ShardID or topo.NodeID so the owning shard is provable", name, types.TypeString(it, nil))
				}
			case ctxBarrier, ctxInit:
				// Coordinator at a happens-before point, or construction.
			case ctxOther:
				add("barrierorder", n.Pkg, sel.Sel.Pos(),
					"shard-owned field %s accessed outside window code without a //dophy:barrier annotation on the happens-before path", name)
			}
		case ownEngine:
			if ctx == ctxWindow {
				add("ownercross", n.Pkg, sel.Sel.Pos(),
					"window code touches engine-owned field %s: coordinator state may only be accessed between windows", name)
			}
		case ownWindow:
			if !write {
				break
			}
			switch ctx {
			case ctxWindow:
				add("ownercross", n.Pkg, sel.Sel.Pos(),
					"window code writes window-frozen field %s: //dophy:owner window fields are read-only inside a window", name)
			case ctxBarrier, ctxInit:
			case ctxOther:
				add("barrierorder", n.Pkg, sel.Sel.Pos(),
					"window-frozen field %s written outside a //dophy:barrier function: horizon state may only advance between windows", name)
			}
		case ownImmutable:
			if write && ctx != ctxInit {
				add("ownercross", n.Pkg, sel.Sel.Pos(),
					"field %s is //dophy:owner immutable and may only be written during construction (New*/init)", name)
			}
		}
		return true
	})
}

// checkTransfers attaches this function's //dophy:transfers pragmas to
// their statements and reports uses of a transferred value in the rest of
// the enclosing block. The check is lexical and block-scoped: a hand-off is
// expected to be the tail of its block, which is exactly the shape the
// pooled-carrier and outbox hand-offs have. Loop-carried reuse (transfer in
// iteration i, use in i+1) is out of scope.
func (m *Module) checkTransfers(n *FuncNode, c *contractInfo, add func(rule string, pkg *Package, pos token.Pos, format string, args ...any)) {
	body := n.Decl.Body
	filePos := m.Fset.Position(body.Pos())
	var anns []*transferAnn
	for _, ta := range c.transfers {
		if ta.pkg == n.Pkg && ta.file == filePos.Filename {
			anns = append(anns, ta)
		}
	}
	if len(anns) == 0 {
		return
	}
	info := n.Pkg.Info
	ast.Inspect(body, func(x ast.Node) bool {
		stmt, ok := x.(ast.Stmt)
		if !ok {
			return true
		}
		if _, isBlock := stmt.(*ast.BlockStmt); isBlock {
			return true
		}
		line := m.Fset.Position(stmt.Pos()).Line
		var ann *transferAnn
		for _, ta := range anns {
			if ta.line == line || ta.line == line-1 {
				ann = ta
				break
			}
		}
		if ann == nil {
			return true
		}
		ann.matched = true
		moved := transferredObjects(info, stmt)
		if moved == nil {
			add("sendown", n.Pkg, ann.pos,
				"//dophy:transfers must annotate a channel send, an append, or a call that hands the value off")
			return true
		}
		if len(moved) == 0 {
			add("sendown", n.Pkg, ann.pos,
				"//dophy:transfers marks no reference-typed values; nothing changes ownership here")
			return true
		}
		m.reportPostTransferUses(n, stmt, moved, add)
		return true
	})
}

// transferredObjects extracts the objects whose ownership a statement moves:
// the sent value of a channel send, the appended values of x = append(x,
// ...), or the arguments of a call (closure captures included). Identifiers
// in function position are the mechanism of the hand-off, not its payload,
// and are excluded. A nil return means the statement shape is not a
// hand-off at all.
func transferredObjects(info *types.Info, stmt ast.Stmt) map[types.Object]bool {
	var exprs []ast.Expr
	switch v := stmt.(type) {
	case *ast.SendStmt:
		exprs = []ast.Expr{v.Value}
	case *ast.AssignStmt:
		for _, rhs := range v.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok {
				continue
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" && isBuiltin(info.Uses[id]) {
				// The first argument is the destination the result is
				// assigned back to, not a moved value.
				if len(call.Args) > 1 {
					exprs = append(exprs, call.Args[1:]...)
				}
				continue
			}
			exprs = append(exprs, call.Args...)
		}
	case *ast.ExprStmt:
		call, ok := ast.Unparen(v.X).(*ast.CallExpr)
		if !ok {
			return nil
		}
		exprs = call.Args
	case *ast.GoStmt:
		exprs = v.Call.Args
	case *ast.DeferStmt:
		exprs = v.Call.Args
	default:
		return nil
	}
	if exprs == nil {
		return nil
	}
	moved := map[types.Object]bool{}
	for _, e := range exprs {
		// Identifiers under a nested call's Fun are excluded: f in
		// f.carrier(to, j).fn is plumbing, while to and j are payload.
		skip := map[ast.Node]bool{}
		ast.Inspect(e, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok {
				skip[call.Fun] = true
			}
			return true
		})
		ast.Inspect(e, func(x ast.Node) bool {
			if skip[x] {
				return false
			}
			id, ok := x.(*ast.Ident)
			if !ok {
				return true
			}
			obj, ok := info.Uses[id].(*types.Var)
			if !ok || !isRefType(obj.Type()) {
				return true
			}
			moved[obj] = true
			return true
		})
	}
	return moved
}

// isBuiltin reports whether obj is a predeclared builtin (or unresolved,
// which for "append" in call position means the same thing).
func isBuiltin(obj types.Object) bool {
	if obj == nil {
		return true
	}
	_, ok := obj.(*types.Builtin)
	return ok
}

// isRefType reports whether values of t share underlying storage when
// copied — the types for which a hand-off is an aliasing concern.
func isRefType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	}
	return false
}

// reportPostTransferUses flags uses of moved objects between the transfer
// statement and the end of its innermost enclosing block. A whole-variable
// reassignment rebinds the name to a fresh value and stops the scan for
// that object.
func (m *Module) reportPostTransferUses(n *FuncNode, stmt ast.Stmt, moved map[types.Object]bool, add func(rule string, pkg *Package, pos token.Pos, format string, args ...any)) {
	info := n.Pkg.Info
	block := enclosingBlockEnd(n.Decl.Body, stmt)
	transferLine := m.Fset.Position(stmt.Pos()).Line

	// Rebind positions per object: the earliest whole-variable reassignment
	// after the transfer kills tracking from there on.
	rebind := map[types.Object]token.Pos{}
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		as, ok := x.(*ast.AssignStmt)
		if !ok || as.Pos() <= stmt.End() || as.End() > block {
			return true
		}
		for _, lhs := range as.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			obj := objectOf(info, id)
			if obj == nil || !moved[obj] {
				continue
			}
			if cur, seen := rebind[obj]; !seen || id.Pos() < cur {
				rebind[obj] = id.Pos()
			}
		}
		return true
	})

	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok || id.Pos() <= stmt.End() || id.End() > block {
			return true
		}
		obj := info.Uses[id]
		if obj == nil || !moved[obj] {
			return true
		}
		if rb, seen := rebind[obj]; seen && id.Pos() >= rb {
			return true
		}
		add("sendown", n.Pkg, id.Pos(),
			"%s is used after its ownership was transferred away (//dophy:transfers on line %d): the sender must not touch a sent value", id.Name, transferLine)
		return true
	})
}

// enclosingBlockEnd finds the End of the innermost block-like node
// containing stmt.
func enclosingBlockEnd(body *ast.BlockStmt, stmt ast.Stmt) token.Pos {
	end := body.End()
	ast.Inspect(body, func(x ast.Node) bool {
		if x == nil {
			return true
		}
		switch x.(type) {
		case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
		default:
			return true
		}
		if x.Pos() <= stmt.Pos() && stmt.End() <= x.End() && x.End() <= end {
			end = x.End()
		}
		return true
	})
	return end
}

// replayContractDiags filters the cached whole-module contract diagnostics
// down to one rule and package, re-entering the per-Run report path so
// waivers apply.
func (m *Module) replayContractDiags(rule string, pkg *Package, report func(pos token.Pos, format string, args ...any)) {
	for _, d := range m.contractDiags() {
		if d.pkg == pkg && d.rule == rule {
			report(d.pos, "%s", d.msg)
		}
	}
}

// ---------------------------------------------------------------------------
// Rule ownercross: window code respects the ownership domains.
//
// Inside a boundary package's window-phase set W, engine-owned state is
// off-limits, window-frozen state is read-only, immutable state is
// read-only everywhere after construction, and shard-owned state is only
// reachable through a typed per-shard projection (a topo.ShardID or
// topo.NodeID element index), so two shards provably never alias it.
// ---------------------------------------------------------------------------

type ruleOwnerCross struct{}

func (ruleOwnerCross) Name() string { return "ownercross" }

func (ruleOwnerCross) Check(m *Module, pkg *Package, report func(pos token.Pos, format string, args ...any)) {
	m.replayContractDiags("ownercross", pkg, report)
}

// ---------------------------------------------------------------------------
// Rule sendown: a sent value is gone.
//
// //dophy:transfers marks the statement where ownership of a value crosses
// the boundary (an outbox append, a pool return, a channel send, a closure
// handed to another shard's engine). Touching the value afterwards is a
// use-after-send — the racy sibling of poolescape's use-after-recycle.
// ---------------------------------------------------------------------------

type ruleSendOwn struct{}

func (ruleSendOwn) Name() string { return "sendown" }

func (ruleSendOwn) Check(m *Module, pkg *Package, report func(pos token.Pos, format string, args ...any)) {
	m.replayContractDiags("sendown", pkg, report)
}

// ---------------------------------------------------------------------------
// Rule barrierorder: cross-shard-visible state only moves at barriers.
//
// Coordinator code that touches shard-owned or window-frozen state must be
// annotated //dophy:barrier — the annotation is the claim that every worker
// is parked (happens-before established) when the function runs — and a
// barrier function must not be reachable from window code.
// ---------------------------------------------------------------------------

type ruleBarrierOrder struct{}

func (ruleBarrierOrder) Name() string { return "barrierorder" }

func (ruleBarrierOrder) Check(m *Module, pkg *Package, report func(pos token.Pos, format string, args ...any)) {
	m.replayContractDiags("barrierorder", pkg, report)
}
