// Package arenaescape generalizes poolret from "don't touch a buffer after
// Put" to "don't let arena-owned storage escape a function that recycles
// the arena" — checked over the control-flow graph, not source order, and
// across function and package boundaries via facts.
//
// The engine's query path carves views out of pooled arenas
// (influence.Arena.Pool, queryScratch.memberMask): the views alias the
// arena's backing arrays and die the moment the arena is Reset or returned
// to its sync.Pool. The dangerous shape is a function that both releases
// an arena and lets a view of it out — through a return value, a
// package-level variable, a channel send, or a closure that carries the
// view — on some path where both happen. The caller then holds storage the
// next query is already overwriting; the corruption is silent and
// seed-dependent, the worst kind in a determinism-contract codebase.
//
// Mechanics:
//
//   - An arena handle is any variable whose (pointer-stripped) named type
//     mentions Arena or Scratch — influence.Arena and engine.queryScratch
//     today, by construction rather than enumeration.
//
//   - A value is owned by handle A when it aliases A's storage: the
//     reference-typed result of a method called through A, a
//     reference-typed field read through A, a call to a function carrying
//     an OwnedResult fact with A in the owner position, an alias of any of
//     those, or a closure capturing one.
//
//   - A release of A is pool.Put(A) (sync.Pool, poolret's matcher), a
//     Release/Reset method called through A, or a call to a function
//     carrying a Releases fact with A in the released position.
//
//   - A diagnostic fires when an escape of a value owned by A and a
//     release of A lie on one CFG path (either order — a released-then-
//     returned view and a stored-then-released view are both dangling), or
//     when the release is deferred, which puts it on every path out.
//
// A function that returns an owned view of a parameter (or receiver)
// without releasing it is not a bug — it is a transfer of the ownership
// obligation, recorded as an OwnedResult fact so the caller is checked
// instead: exactly the sampleSource.draw -> Execute relationship in
// internal/engine. Likewise a function that releases a parameter earns a
// Releases fact (engine's release method), so `defer e.release(sc)`
// guards the whole extent of Execute. Suppress a deliberate exception
// with //codvet:ignore arenaescape and a reason.
package arenaescape

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"github.com/codsearch/cod/internal/analysis"
	"github.com/codsearch/cod/internal/analysis/cfg"
)

// OwnedResult marks a function whose result aliases the storage of the
// arena passed in the Owner position.
type OwnedResult struct {
	Owner  int `json:"owner"` // parameter index; -1 for the receiver
	Result int `json:"result"`
}

// AFact marks the type as a fact.
func (*OwnedResult) AFact() {}

// Releases marks a function that recycles the arena passed in the Param
// position.
type Releases struct {
	Param int `json:"param"` // parameter index; -1 for the receiver
}

// AFact marks the type as a fact.
func (*Releases) AFact() {}

// Analyzer is the arenaescape analyzer.
var Analyzer = &analysis.Analyzer{
	Name:      "arenaescape",
	Doc:       "forbid arena-owned views from escaping functions that release the arena, on any CFG path",
	Run:       run,
	FactTypes: []analysis.Fact{(*OwnedResult)(nil), (*Releases)(nil)},
}

// funcSummary is the package-local fixpoint state for one function.
type funcSummary struct {
	owned    *OwnedResult
	releases *Releases
}

func run(pass *analysis.Pass) error {
	fns := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.SourceFiles() {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok {
					fns[obj] = fn
				}
			}
		}
	}

	// Summaries to a fixpoint first (helpers may be declared after their
	// callers), diagnostics after, so call chains within the package work
	// exactly like imported facts.
	local := make(map[*types.Func]*funcSummary)
	for changed := true; changed; {
		changed = false
		for obj, fn := range fns {
			a := newAnalysis(pass, fn, local)
			s := a.summarize()
			prev := local[obj]
			if prev == nil || !summaryEq(prev, s) {
				local[obj] = s
				changed = true
			}
		}
	}
	for obj, s := range local {
		if s.owned != nil {
			pass.ExportObjectFact(obj, s.owned)
		}
		if s.releases != nil {
			pass.ExportObjectFact(obj, s.releases)
		}
	}

	if !pass.IsLibraryPackage() {
		return nil
	}
	for _, fn := range fns {
		newAnalysis(pass, fn, local).report()
	}
	return nil
}

func summaryEq(a, b *funcSummary) bool {
	eqO := (a.owned == nil) == (b.owned == nil) &&
		(a.owned == nil || *a.owned == *b.owned)
	eqR := (a.releases == nil) == (b.releases == nil) &&
		(a.releases == nil || *a.releases == *b.releases)
	return eqO && eqR
}

// escape is one point where an owned value leaves the function.
type escape struct {
	root   types.Object
	pos    token.Pos
	kind   string // "return value", "package-level variable", "channel send"
	result int    // result index for returns, else -1
}

// release is one point where an arena's storage is recycled.
type release struct {
	root     types.Object
	pos      token.Pos
	deferred bool
}

// funcAnalysis holds one function's collected state.
type funcAnalysis struct {
	pass  *analysis.Pass
	fn    *ast.FuncDecl
	local map[*types.Func]*funcSummary

	owned    map[types.Object]types.Object // alias -> arena handle
	escapes  []escape
	releases []release
}

func newAnalysis(pass *analysis.Pass, fn *ast.FuncDecl, local map[*types.Func]*funcSummary) *funcAnalysis {
	a := &funcAnalysis{pass: pass, fn: fn, local: local, owned: make(map[types.Object]types.Object)}
	a.collectOwned()
	a.collectReleases()
	a.collectEscapes()
	return a
}

// summarize derives the function's exported facts: releasing a parameter
// or the receiver earns Releases; returning a parameter-owned view with no
// release of that parameter earns OwnedResult (ownership transfer).
func (a *funcAnalysis) summarize() *funcSummary {
	s := &funcSummary{}
	for _, rel := range a.releases {
		if idx, ok := a.paramIndex(rel.root); ok {
			s.releases = &Releases{Param: idx}
			break
		}
	}
	released := make(map[types.Object]bool)
	for _, rel := range a.releases {
		released[rel.root] = true
	}
	for _, esc := range a.escapes {
		if esc.kind != "return value" || released[esc.root] {
			continue
		}
		if idx, ok := a.paramIndex(esc.root); ok {
			s.owned = &OwnedResult{Owner: idx, Result: esc.result}
			break
		}
	}
	return s
}

// report emits diagnostics for escape/release pairs sharing a CFG path.
func (a *funcAnalysis) report() {
	if len(a.escapes) == 0 || len(a.releases) == 0 {
		return
	}
	g := cfg.New(a.fn.Body)
	for _, esc := range a.escapes {
		for _, rel := range a.releases {
			if rel.root != esc.root {
				continue
			}
			if rel.deferred || onePath(g, rel.pos, esc.pos) {
				a.pass.Reportf(esc.pos,
					"value owned by %s escapes via %s on a path where %s is released; the view aliases storage the next query will overwrite",
					esc.root.Name(), esc.kind, esc.root.Name())
				break
			}
		}
	}
}

// onePath reports whether the statements at two positions can both execute
// in one run of the function: same basic block, or one block reaches the
// other.
func onePath(g *cfg.Graph, a, b token.Pos) bool {
	ba, bb := blockFor(g, a), blockFor(g, b)
	if ba == nil || bb == nil {
		return true // unmapped (e.g. inside a nested literal): stay conservative
	}
	return ba == bb || g.Reaches(ba, bb) || g.Reaches(bb, ba)
}

// blockFor finds the basic block whose smallest node span contains pos.
func blockFor(g *cfg.Graph, pos token.Pos) *cfg.Block {
	var best *cfg.Block
	var bestSpan token.Pos
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if n.Pos() <= pos && pos <= n.End() {
				span := n.End() - n.Pos()
				if best == nil || span < bestSpan {
					best, bestSpan = b, span
				}
			}
		}
	}
	return best
}

// --- collection ---

// collectOwned builds the alias map: variables bound to arena-owned
// values. Iterated so chains of aliases resolve regardless of order.
func (a *funcAnalysis) collectOwned() {
	for i := 0; i < 3; i++ {
		before := len(a.owned)
		ast.Inspect(a.fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) > 1 && len(n.Rhs) == 1 {
					a.bindMulti(n.Lhs, n.Rhs[0])
					return true
				}
				for j, lhs := range n.Lhs {
					rhs := n.Rhs[0]
					if len(n.Rhs) == len(n.Lhs) {
						rhs = n.Rhs[j]
					}
					a.bind(lhs, rhs)
				}
			case *ast.ValueSpec:
				for j, name := range n.Names {
					if j < len(n.Values) {
						a.bind(name, n.Values[j])
					}
				}
			}
			return true
		})
		if len(a.owned) == before {
			return
		}
	}
}

func (a *funcAnalysis) bind(lhs, rhs ast.Expr) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return
	}
	obj := analysis.ObjectOf(a.pass.TypesInfo, id)
	if obj == nil {
		return
	}
	if root, ok := a.ownedSource(rhs); ok {
		a.owned[obj] = root
	}
}

// bindMulti handles `a, b := call()`: the call's type is a tuple, so the
// single-value path cannot see through it. The owned summary pins which
// result aliases the arena; for a bare handle-method call every
// reference-typed result does.
func (a *funcAnalysis) bindMulti(lhss []ast.Expr, rhs ast.Expr) {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return
	}
	root, hint, ok := a.ownedCallRoot(call)
	if !ok {
		return
	}
	for i, lhs := range lhss {
		if hint >= 0 && i != hint {
			continue
		}
		id, idOK := ast.Unparen(lhs).(*ast.Ident)
		if !idOK {
			continue
		}
		obj := analysis.ObjectOf(a.pass.TypesInfo, id)
		if obj == nil || !refLike(obj.Type()) {
			continue
		}
		a.owned[obj] = root
	}
}

// ownedSource reports whether e aliases arena storage and which handle
// owns it. The expression itself must be reference-like: extracting a
// scalar element of a view copies it out of the arena.
func (a *funcAnalysis) ownedSource(e ast.Expr) (types.Object, bool) {
	if !refLike(a.pass.TypesInfo.TypeOf(e)) {
		return nil, false
	}
	var root types.Object
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.Ident:
			if obj := analysis.ObjectOf(a.pass.TypesInfo, n); obj != nil {
				if r, ok := a.owned[obj]; ok {
					root, found = r, true
				}
			}
		case *ast.SelectorExpr:
			// A reference-typed field read through a handle (a.ptrs) is a
			// view; the arena field of a scratch (sc.arena) is the arena
			// itself, not a view of it.
			if h := handleRoot(a.pass.TypesInfo, n.X); h != nil {
				t := a.pass.TypesInfo.TypeOf(n)
				if refLike(t) && !arenaNamed(t) {
					root, found = h, true
				}
			}
		case *ast.CallExpr:
			if r, ok := a.ownedCall(n); ok {
				root, found = r, true
				return false
			}
		case *ast.FuncLit:
			// A closure capturing a view carries the view.
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if found {
					return false
				}
				if id, ok := m.(*ast.Ident); ok {
					if obj := analysis.ObjectOf(a.pass.TypesInfo, id); obj != nil {
						if r, ok := a.owned[obj]; ok {
							root, found = r, true
						}
					}
				}
				return true
			})
			return false
		}
		return !found
	})
	return root, found
}

// ownedCall matches single-valued view-minting calls; see ownedCallRoot.
func (a *funcAnalysis) ownedCall(call *ast.CallExpr) (types.Object, bool) {
	root, hint, ok := a.ownedCallRoot(call)
	if !ok {
		return nil, false
	}
	if hint < 0 && !refLike(a.pass.TypesInfo.TypeOf(call)) {
		return nil, false
	}
	return root, true
}

// ownedCallRoot matches the two call shapes that mint views: a method
// invoked through a handle, and a call to a function with an OwnedResult
// summary whose owner argument is a handle. resultHint is the owned result
// index when the summary pins one, -1 when any reference-typed result of a
// handle method counts.
func (a *funcAnalysis) ownedCallRoot(call *ast.CallExpr) (root types.Object, resultHint int, ok bool) {
	info := a.pass.TypesInfo
	if sel, selOK := ast.Unparen(call.Fun).(*ast.SelectorExpr); selOK {
		if h := handleRoot(info, sel.X); h != nil {
			return h, -1, true
		}
	}
	callee := calleeFunc(info, call)
	if callee == nil {
		return nil, 0, false
	}
	fact, factOK := a.ownedFact(callee)
	if !factOK {
		return nil, 0, false
	}
	var ownerExpr ast.Expr
	if fact.Owner < 0 {
		if sel, selOK := ast.Unparen(call.Fun).(*ast.SelectorExpr); selOK {
			ownerExpr = sel.X
		}
	} else if fact.Owner < len(call.Args) {
		ownerExpr = call.Args[fact.Owner]
	}
	if ownerExpr == nil {
		return nil, 0, false
	}
	if h := handleRoot(info, ownerExpr); h != nil {
		return h, fact.Result, true
	}
	return nil, 0, false
}

func (a *funcAnalysis) ownedFact(fn *types.Func) (OwnedResult, bool) {
	if s, ok := a.local[fn]; ok && s.owned != nil {
		return *s.owned, true
	}
	var fact OwnedResult
	if a.pass.ImportObjectFact(fn, &fact) {
		return fact, true
	}
	return OwnedResult{}, false
}

func (a *funcAnalysis) releasesFact(fn *types.Func) (Releases, bool) {
	if s, ok := a.local[fn]; ok && s.releases != nil {
		return *s.releases, true
	}
	var fact Releases
	if a.pass.ImportObjectFact(fn, &fact) {
		return fact, true
	}
	return Releases{}, false
}

// collectReleases finds every recycling point, noting deferred ones
// (including a release inside a deferred closure).
func (a *funcAnalysis) collectReleases() {
	ast.Inspect(a.fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			a.releaseCall(n.Call, true)
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok {
						a.releaseCall(call, true)
					}
					return true
				})
			}
			return false
		case *ast.CallExpr:
			a.releaseCall(n, false)
		}
		return true
	})
}

// releaseCall records call if it recycles an arena handle.
func (a *funcAnalysis) releaseCall(call *ast.CallExpr, deferred bool) {
	info := a.pass.TypesInfo
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		// pool.Put(handle): surrendering the arena to a sync.Pool.
		if sel.Sel.Name == "Put" && len(call.Args) == 1 && isSyncPool(info.TypeOf(sel.X)) {
			if h := handleRoot(info, call.Args[0]); h != nil {
				a.releases = append(a.releases, release{root: h, pos: call.Pos(), deferred: deferred})
				return
			}
		}
		// handle.Release() / handle.Reset(): in-place recycling.
		if sel.Sel.Name == "Release" || sel.Sel.Name == "Reset" {
			if h := handleRoot(info, sel.X); h != nil {
				a.releases = append(a.releases, release{root: h, pos: call.Pos(), deferred: deferred})
				return
			}
		}
	}
	// A call to a function that releases one of its parameters (or its
	// receiver) releases our handle transitively.
	callee := calleeFunc(info, call)
	if callee == nil {
		return
	}
	fact, ok := a.releasesFact(callee)
	if !ok {
		return
	}
	var relExpr ast.Expr
	if fact.Param < 0 {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			relExpr = sel.X
		}
	} else if fact.Param < len(call.Args) {
		relExpr = call.Args[fact.Param]
	}
	if relExpr == nil {
		return
	}
	if h := handleRoot(info, relExpr); h != nil {
		a.releases = append(a.releases, release{root: h, pos: call.Pos(), deferred: deferred})
	}
}

// collectEscapes finds returns, package-level stores, and channel sends of
// owned values. FuncLit bodies are skipped: a literal's return is not this
// function's, and a view-carrying literal is itself tracked as owned.
func (a *funcAnalysis) collectEscapes() {
	namedResults := a.namedResultObjs()
	ast.Inspect(a.fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for i, res := range n.Results {
				if root, ok := a.ownedSource(res); ok {
					a.escapes = append(a.escapes, escape{root: root, pos: res.Pos(), kind: "return value", result: i})
				}
			}
			if len(n.Results) == 1 {
				a.forwardedEscapes(n.Results[0])
			}
			if len(n.Results) == 0 {
				for i, obj := range namedResults {
					if root, ok := a.owned[obj]; ok {
						a.escapes = append(a.escapes, escape{root: root, pos: n.Pos(), kind: "return value", result: i})
					}
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				rhs := n.Rhs[0]
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				if !a.isPackageLevel(lhs) {
					continue
				}
				if root, ok := a.ownedSource(rhs); ok {
					a.escapes = append(a.escapes, escape{root: root, pos: rhs.Pos(), kind: "package-level variable", result: -1})
				}
			}
		case *ast.SendStmt:
			if root, ok := a.ownedSource(n.Value); ok {
				a.escapes = append(a.escapes, escape{root: root, pos: n.Value.Pos(), kind: "channel send", result: -1})
			}
		}
		return true
	})
}

// forwardedEscapes records the escapes of `return f(...)` when f returns
// several values: the call's type is a tuple, which refLike cannot judge
// as a whole, so each result the call's ownership summary (or a handle
// method's reference-typed results) marks as a view escapes on its own.
func (a *funcAnalysis) forwardedEscapes(res ast.Expr) {
	tup, ok := a.pass.TypesInfo.TypeOf(res).(*types.Tuple)
	if !ok {
		return
	}
	call, ok := ast.Unparen(res).(*ast.CallExpr)
	if !ok {
		return
	}
	root, hint, ok := a.ownedCallRoot(call)
	if !ok {
		return
	}
	for j := 0; j < tup.Len(); j++ {
		if j == hint || (hint < 0 && refLike(tup.At(j).Type())) {
			a.escapes = append(a.escapes, escape{root: root, pos: res.Pos(), kind: "return value", result: j})
		}
	}
}

// isPackageLevel reports whether the assignable's base variable lives at
// package scope.
func (a *funcAnalysis) isPackageLevel(e ast.Expr) bool {
	base := baseIdent(e)
	if base == nil {
		return false
	}
	obj := analysis.ObjectOf(a.pass.TypesInfo, base)
	v, ok := obj.(*types.Var)
	return ok && v.Parent() == a.pass.Pkg.Scope()
}

// namedResultObjs returns the function's named result variables, in
// result order.
func (a *funcAnalysis) namedResultObjs() []types.Object {
	var out []types.Object
	if a.fn.Type.Results == nil {
		return nil
	}
	for _, field := range a.fn.Type.Results.List {
		for _, name := range field.Names {
			out = append(out, a.pass.TypesInfo.Defs[name])
		}
	}
	return out
}

// paramIndex maps an object to its position in the function signature:
// 0-based parameter index, or -1 for the receiver.
func (a *funcAnalysis) paramIndex(obj types.Object) (int, bool) {
	if a.fn.Recv != nil {
		for _, field := range a.fn.Recv.List {
			for _, name := range field.Names {
				if a.pass.TypesInfo.Defs[name] == obj {
					return -1, true
				}
			}
		}
	}
	i := 0
	for _, field := range a.fn.Type.Params.List {
		for _, name := range field.Names {
			if a.pass.TypesInfo.Defs[name] == obj {
				return i, true
			}
			i++
		}
		if len(field.Names) == 0 {
			i++
		}
	}
	return 0, false
}

// --- type and shape helpers ---

// handleRoot unwraps selectors, derefs, and index expressions to the base
// identifier and returns its object when that object is arena-typed.
func handleRoot(info *types.Info, e ast.Expr) types.Object {
	base := baseIdent(e)
	if base == nil {
		return nil
	}
	obj := analysis.ObjectOf(info, base)
	if obj == nil || !arenaNamed(obj.Type()) {
		return nil
	}
	return obj
}

func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// arenaNamed reports whether t (pointer-stripped) is a named type whose
// name marks pooled storage.
func arenaNamed(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	name := strings.ToLower(named.Obj().Name())
	return strings.Contains(name, "arena") || strings.Contains(name, "scratch")
}

// refLike reports whether values of t alias underlying storage rather
// than copy it: slices, pointers, maps, channels and funcs, and structs and
// arrays with a field or element that is one. A struct of slice headers
// (influence.Pool, core.EvalResult) is as much a view as a single slice.
// Interfaces are deliberately excluded: the dominant interface result in
// this codebase is error, and treating every err alongside an owned slice
// as a view would drown the check in noise.
func refLike(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Pointer, *types.Map, *types.Chan, *types.Signature:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if refLike(u.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return refLike(u.Elem())
	}
	return false
}

func isSyncPool(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Pool"
}

func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := analysis.ObjectOf(info, fun).(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := analysis.ObjectOf(info, fun.Sel).(*types.Func)
		return fn
	}
	return nil
}
