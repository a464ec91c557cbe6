package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// ---------------------------------------------------------------------------
// Rule determflow: nondeterminism must not flow into sim-visible state.
//
// determflow is the repo's one determinism-source rule. It reports each
// source where it is written and then follows it through the whole-module
// call graph, so a source laundered through a helper function is caught
// too:
//
//   - Sources: wall-clock reads (time.Now and friends), math/rand calls
//     outside internal/rng, go statements outside a
//     //dophy:concurrency-boundary file, and indirect calls whose callee
//     set cannot be resolved at all (assumed nondeterministic — soundness
//     over silence). Sources are read from function bodies.
//   - Sinks: everything the simulation or estimation pipeline can observe,
//     i.e. all module code under internal/ plus the root package — except
//     internal/rng (the sanctioned seeded stream; deterministic by
//     contract) and internal/lint (tooling). cmd/ and examples/ may time
//     things for humans.
//
// Reports fire at exactly one place per leak, not along the whole chain.
// The source itself is reported where it is written: math/rand calls and
// go statements module-wide (cmd/ and examples/ too), wall-clock reads and
// unresolvable calls in sink scope. Propagation is reported at the first
// call edge where sink code reaches a tainted function outside sink scope,
// with the full call chain down to the source in the message. A
// //dophy:allow determflow waiver on a source or on a call edge kills
// propagation there, so one reviewed waiver at the sanctioned spot (e.g.
// the T4 wall-clock shim) covers every downstream consumer. The
// boundary pragma's own hygiene (a justification, and at least one go
// statement in the file) is reported under determflow as well.
//
// determflow also follows map iteration order inter-procedurally: ranging
// over a map while calling a module function that transitively writes
// ordered output (fmt.Print/Fprint family or io.Writer-style methods)
// leaks iteration order into that output.
// ---------------------------------------------------------------------------

const determRuleName = "determflow"

type ruleDetermFlow struct{}

func (ruleDetermFlow) Name() string { return determRuleName }

func (ruleDetermFlow) Check(m *Module, pkg *Package, report func(pos token.Pos, format string, args ...any)) {
	for _, d := range m.determDiags() {
		if d.pkg == pkg {
			report(d.pos, d.format, d.args...)
		}
	}
	// Boundary hygiene: a boundary needs a justification, and a boundary
	// that spawns nothing protects nothing.
	for _, file := range pkg.Files {
		bf := m.boundaries()[file]
		if bf == nil {
			continue
		}
		if bf.reason == "" {
			report(bf.pos, "concurrency-boundary pragma has no justification; append ' -- <why this boundary preserves determinism>'")
		}
		if bf.goStmts == 0 {
			report(bf.pos, "file declares a concurrency boundary but spawns no goroutines; delete the pragma")
		}
	}
}

// BoundaryPragma sanctions the go statements of the file that carries it:
//
//	//dophy:concurrency-boundary -- <why this boundary preserves determinism>
//
// The pragma is file-scoped, so a go statement elsewhere in the same
// package is still a determflow source.
const BoundaryPragma = "//dophy:concurrency-boundary"

// boundaryFile is one file carrying a //dophy:concurrency-boundary pragma.
type boundaryFile struct {
	pos     token.Pos
	reason  string
	goStmts int // go statements in the file; zero means the pragma is stale
}

// boundaries parses (once) every concurrency-boundary pragma in the module.
func (m *Module) boundaries() map[*File]*boundaryFile {
	if m.bounds != nil {
		return m.bounds
	}
	m.bounds = map[*File]*boundaryFile{}
	for _, pkg := range m.Packages {
		for _, file := range pkg.Files {
			for _, cg := range file.AST.Comments {
				for _, cm := range cg.List {
					arg, ok := directiveArg(cm.Text, BoundaryPragma)
					if !ok || m.bounds[file] != nil {
						continue
					}
					_, reason, _ := strings.Cut(arg, "--")
					bf := &boundaryFile{pos: cm.Pos(), reason: strings.TrimSpace(reason)}
					ast.Inspect(file.AST, func(n ast.Node) bool {
						if _, isGo := n.(*ast.GoStmt); isGo {
							bf.goStmts++
						}
						return true
					})
					m.bounds[file] = bf
				}
			}
		}
	}
	return m.bounds
}

// directiveArg matches text against a //dophy: directive prefix and returns
// the trimmed remainder. The prefix must be followed by whitespace or
// nothing, so near-misses like //dophy:concurrency-boundaryx do not match.
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

// wallTimeFuncs are the time package functions that read or schedule on the
// wall clock.
var wallTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

// taintInfo records why a function is tainted: the originating source and
// the next hop on the call path toward it (nil when the source is local).
type taintInfo struct {
	desc string
	pos  token.Pos
	next *FuncNode
}

// taintChain renders the call path from n down to its source.
func taintChain(n *FuncNode, taint map[*FuncNode]*taintInfo) string {
	var parts []string
	for cur := n; cur != nil; {
		parts = append(parts, cur.Name())
		ti := taint[cur]
		if ti == nil {
			break
		}
		if ti.next == nil {
			parts = append(parts, ti.desc)
			break
		}
		cur = ti.next
	}
	return strings.Join(parts, " -> ")
}

// sinkScope reports whether a package's state is simulation-visible: the
// module root and internal/*, minus the tooling (internal/lint) and the
// sanctioned randomness source (internal/rng).
func sinkScope(rel string) bool {
	for _, exempt := range []string{"internal/lint", "internal/rng"} {
		if rel == exempt || strings.HasPrefix(rel, exempt+"/") {
			return false
		}
	}
	return rel == "" || rel == "internal" || strings.HasPrefix(rel, "internal/")
}

// determDiags computes (once per pragma index) every determflow diagnostic.
// It consults the active Run's pragma index during propagation so a waiver
// at a source or call edge kills the chain there — and counts as usage.
func (m *Module) determDiags() []hotDiag {
	idx := m.pidx
	if idx == nil {
		idx = m.newPragmaIndex(AllRules())
	}
	if m.taintFor != nil && m.taintFor == idx {
		return m.taintDiags
	}
	cg := m.CallGraph()
	var diags []hotDiag
	allowed := func(pos token.Pos) bool { return idx.allowedAt(determRuleName, pos) }
	inRNG := func(rel string) bool { return rel == "internal/rng" || strings.HasPrefix(rel, "internal/rng/") }

	// Deterministic node order for stable diagnostics and taint chains.
	nodes := cg.Funcs()

	taint := map[*FuncNode]*taintInfo{}
	var queue []*FuncNode
	mark := func(n *FuncNode, ti *taintInfo) {
		// internal/rng is a taint barrier: deterministic by contract.
		if taint[n] != nil || inRNG(n.Pkg.RelPath) {
			return
		}
		taint[n] = ti
		queue = append(queue, n)
	}

	// Pass 1: direct sources, with source-site reports.
	for _, n := range nodes {
		// Goroutine spawns reorder observable events — except inside a
		// declared //dophy:concurrency-boundary file, whose determinism
		// argument the pragma states and the race detector,
		// TestShardedByteDeterminism and the goldens check at run time.
		// Reported module-wide.
		if n.Decl.Body != nil && m.boundaries()[n.File] == nil {
			ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
				if g, ok := x.(*ast.GoStmt); ok && !allowed(g.Pos()) {
					mark(n, &taintInfo{desc: "go statement", pos: g.Pos()})
					diags = append(diags, hotDiag{pkg: n.Pkg, pos: g.Pos(),
						format: "goroutine outside a //dophy:concurrency-boundary file: simulations are single-threaded by construction"})
				}
				return true
			})
		}
		if inRNG(n.Pkg.RelPath) {
			continue
		}
		sink := sinkScope(n.Pkg.RelPath)
		hasCand := map[token.Pos]bool{}
		for i := range n.Calls {
			if n.Calls[i].Kind == EdgeFuncValue {
				hasCand[n.Calls[i].Pos] = true
			}
		}
		for i := range n.Calls {
			e := &n.Calls[i]
			switch e.Kind {
			case EdgeExternal:
				if e.Ext == nil || e.Ext.Pkg() == nil {
					continue
				}
				switch path := e.Ext.Pkg().Path(); {
				case path == "time" && wallTimeFuncs[e.Ext.Name()]:
					if allowed(e.Pos) {
						continue
					}
					mark(n, &taintInfo{desc: "time." + e.Ext.Name(), pos: e.Pos})
					if sink {
						diags = append(diags, hotDiag{pkg: n.Pkg, pos: e.Pos,
							format: "wall-clock time.%s feeds simulation-visible state in %s; use sim.Engine virtual time",
							args:   []any{e.Ext.Name(), n.Pkg.RelPath}})
					}
				case path == "math/rand" || path == "math/rand/v2":
					if allowed(e.Pos) {
						continue
					}
					mark(n, &taintInfo{desc: path + "." + e.Ext.Name(), pos: e.Pos})
					diags = append(diags, hotDiag{pkg: n.Pkg, pos: e.Pos,
						format: "use of %s.%s: all randomness must come from %s/internal/rng (seeded, splittable)",
						args:   []any{path, e.Ext.Name(), m.Path}})
				}
			case EdgeUnresolved:
				// A call with no statically known callees at all. Interface
				// misses resolve outside the module (stdlib values) and are
				// out of scope; calls through parameters/locals are callback
				// plumbing whose values are analysed where they are created;
				// what remains — package-level function vars and struct
				// fields with zero candidates — must be assumed
				// nondeterministic.
				if e.IfaceMiss || e.Local || hasCand[e.Pos] || allowed(e.Pos) {
					continue
				}
				mark(n, &taintInfo{desc: "unresolvable indirect call", pos: e.Pos})
				if sink {
					diags = append(diags, hotDiag{pkg: n.Pkg, pos: e.Pos,
						format: "indirect call has no statically known callee; determflow must assume it is nondeterministic"})
				}
			case EdgeDirect, EdgeInterface, EdgeFuncValue:
				// Resolved in-module edges seed nothing here; pass 2
				// propagates taint across them once sources are known.
			}
		}
	}

	// Pass 2: propagate taint to callers through resolved edges.
	for qi := 0; qi < len(queue); qi++ {
		g := queue[qi]
		ti := taint[g]
		for _, ref := range g.callers {
			switch ref.edge.Kind {
			case EdgeDirect, EdgeInterface, EdgeFuncValue:
			case EdgeUnresolved, EdgeExternal:
				continue
			}
			if taint[ref.node] != nil || allowed(ref.edge.Pos) {
				continue
			}
			mark(ref.node, &taintInfo{desc: ti.desc, pos: ti.pos, next: g})
		}
	}

	// Pass 3: boundary reports — sink code reaching a tainted function
	// outside sink scope. Edges between two sink-scope functions stay
	// silent (the source site already reported, and cascades would bury it).
	type bkey struct {
		pos token.Pos
		g   *FuncNode
	}
	seen := map[bkey]bool{}
	for _, f := range nodes {
		if !sinkScope(f.Pkg.RelPath) {
			continue
		}
		for i := range f.Calls {
			e := &f.Calls[i]
			switch e.Kind {
			case EdgeDirect, EdgeInterface, EdgeFuncValue:
			case EdgeUnresolved, EdgeExternal:
				continue
			}
			g := e.Callee
			if g == nil || sinkScope(g.Pkg.RelPath) || taint[g] == nil {
				continue
			}
			if seen[bkey{e.Pos, g}] {
				continue
			}
			seen[bkey{e.Pos, g}] = true
			if allowed(e.Pos) {
				continue
			}
			diags = append(diags, hotDiag{pkg: f.Pkg, pos: e.Pos,
				format: "call into %s carries nondeterminism from %s (chain: %s)",
				args:   []any{g.Name(), taint[g].desc, taintChain(g, taint)}})
		}
	}

	// Pass 4: inter-procedural map-order leaks — a range over a map whose
	// body calls a module function that transitively writes ordered output.
	ordered := map[*FuncNode]bool{}
	var oq []*FuncNode
	for _, n := range nodes {
		if directOrderedOutput(n) {
			ordered[n] = true
			oq = append(oq, n)
		}
	}
	for qi := 0; qi < len(oq); qi++ {
		g := oq[qi]
		for _, ref := range g.callers {
			// Direct and interface edges only: function-value candidate
			// sets are signature-matched and would over-approximate here.
			switch ref.edge.Kind {
			case EdgeDirect, EdgeInterface:
			case EdgeFuncValue, EdgeUnresolved, EdgeExternal:
				continue
			}
			if !ordered[ref.node] {
				ordered[ref.node] = true
				oq = append(oq, ref.node)
			}
		}
	}
	for _, f := range nodes {
		if !sinkScope(f.Pkg.RelPath) || f.Decl.Body == nil {
			continue
		}
		f := f
		ast.Inspect(f.Decl.Body, func(x ast.Node) bool {
			rs, ok := x.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := f.Pkg.Info.Types[rs.X]
			if !ok || tv.Type == nil {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			seenPos := map[token.Pos]bool{}
			for i := range f.Calls {
				e := &f.Calls[i]
				if e.Pos < rs.Body.Pos() || e.Pos >= rs.Body.End() {
					continue
				}
				switch e.Kind {
				case EdgeDirect, EdgeInterface:
				case EdgeFuncValue, EdgeUnresolved, EdgeExternal:
					continue
				}
				if e.Callee == nil || !ordered[e.Callee] || seenPos[e.Pos] {
					continue
				}
				seenPos[e.Pos] = true
				if allowed(e.Pos) {
					continue
				}
				diags = append(diags, hotDiag{pkg: f.Pkg, pos: e.Pos,
					format: "map iteration order leaks through call to %s, which transitively writes ordered output; iterate sorted keys instead",
					args:   []any{e.Callee.Name()}})
			}
			return true
		})
	}

	sort.SliceStable(diags, func(i, j int) bool { return diags[i].pos < diags[j].pos })
	m.taintFor, m.taintDiags = idx, diags
	return diags
}

// orderedFmt are the fmt functions whose output order is observable.
// Sprint-family calls build values rather than emit them, so they are left
// to the flow analysis of whoever writes the result.
var orderedFmt = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// writerMethods are method names treated as io.Writer-style ordered sinks.
var writerMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

// directOrderedOutput reports whether n's own body emits ordered output.
func directOrderedOutput(n *FuncNode) bool {
	if n.Decl.Body == nil {
		return false
	}
	fmtNames := importNames(n.File.AST, "fmt")
	found := false
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		if found {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := isPkgSelector(call.Fun, fmtNames); ok && orderedFmt[sel.Sel.Name] && resolvesToPackage(n.Pkg.Info, sel) {
			found = true
			return false
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && writerMethods[sel.Sel.Name] {
			if s := n.Pkg.Info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
				found = true
				return false
			}
		}
		return true
	})
	return found
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
