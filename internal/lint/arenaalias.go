package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Arena-aliasing analysis
//
// graphalgo.SetStore hands out zero-copy views of its flat arena:
// Set(i) returns a sub-slice of the backing array, Raw() returns the
// arena itself. Append, AppendWith, AppendStore, AppendRange, and Grow may
// realloc that array, and Reset retires it logically; a view captured before any of
// those calls silently points at stale (or recycled) memory afterwards
// — no panic, no race-detector report, just wrong coverage counts.
// This is the sharpest foot-gun of the PR 4 substrate, and it is
// invisible to intra-procedural review the moment the mutation happens
// inside a helper.
//
// arenaalias tracks, per function and in source-position order, which
// locals are live views of which store, which calls (directly or
// through summarized callees) mutate that store, and reports any use
// of a view after its store was mutated. Two summary facts flow
// through the call graph:
//
//   - Mutates: the set of parameters whose store the function mutates.
//   - ResultViews[r]: the set of parameters whose arena result r
//     aliases (a function returning st.Set(i) is itself a view
//     constructor).
//
// Recognition is by type *name*: any named type called "SetStore"
// participates, so fixture corpora can declare a miniature stand-in
// without importing graphalgo.

// Mutating and view-returning SetStore methods.
var (
	setStoreMutators = map[string]bool{"Append": true, "AppendWith": true, "AppendStore": true, "AppendRange": true, "Grow": true, "Reset": true}
	setStoreViewers  = map[string]bool{"Set": true, "Raw": true}
)

// rotatingSinks names call targets whose func(*SetStore) argument is a
// rotating-arena sink: the streaming sampler's batches (SampleStream) and
// a spill replay's chunks (Chunks). The store is borrowed for exactly one
// invocation and is reset or refilled by the caller the moment the sink
// returns, so a view that escapes the sink's scope is stale by
// construction. Recognition is by call name, matching the type-name-based
// recognition above.
var rotatingSinks = map[string]bool{"SampleStream": true, "Chunks": true}

// ArenaSummary is the inter-procedural aliasing contract of a function.
type ArenaSummary struct {
	// ResultViews[r] marks the parameters whose arena result r views.
	ResultViews []uint64
	// Mutates marks the parameters whose store the function mutates.
	Mutates uint64
}

func (s *ArenaSummary) equal(t *ArenaSummary) bool {
	if s == nil || t == nil {
		return s == t
	}
	if s.Mutates != t.Mutates || len(s.ResultViews) != len(t.ResultViews) {
		return false
	}
	for i := range s.ResultViews {
		if s.ResultViews[i] != t.ResultViews[i] {
			return false
		}
	}
	return true
}

// isSetStoreType reports whether t (possibly behind pointers) is a
// named type called SetStore.
func isSetStoreType(t types.Type) bool {
	for {
		ptr, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "SetStore"
}

// isSetStoreCall reports whether call is a method call on a SetStore
// receiver.
func isSetStoreCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || info == nil {
		return false
	}
	t := info.TypeOf(sel.X)
	return t != nil && isSetStoreType(t)
}

// storeKey names a store for intra-function identity: the printed
// receiver expression ("st", "s.store"). Address-of and dereference
// wrappers are stripped so &st and st alias the same arena.
func storeKey(e ast.Expr) string {
	for {
		switch ee := ast.Unparen(e).(type) {
		case *ast.UnaryExpr:
			if ee.Op == token.AND {
				e = ee.X
				continue
			}
		case *ast.StarExpr:
			e = ee.X
			continue
		}
		break
	}
	return types.ExprString(ast.Unparen(e))
}

// arenaEvent is one position-ordered occurrence inside a function.
type arenaEvent struct {
	pos  token.Pos
	kind int // evView, evMutate, evUse, evReturn
	// evView: obj becomes a view of store key (paramBit <0 if the store
	// is not a parameter). evMutate: store key mutated (desc names the
	// mutator). evUse: obj read. evReturn: result index in bit, expr in
	// obj-less fields.
	obj      types.Object
	key      string
	paramBit int
	desc     string
	retIndex int
	retExpr  ast.Expr
}

const (
	evView = iota
	evMutate
	evUse
	evReturn
)

// arenaScan analyzes one function body (or function literal body).
type arenaScan struct {
	prog   *Program
	fi     *FuncInfo
	params []types.Object
	events []arenaEvent
}

// summarizeArena recomputes fi's arena summary and reports change.
func summarizeArena(p *Program, fi *FuncInfo) bool {
	s := &arenaScan{prog: p, fi: fi, params: paramObjs(fi.Pkg, fi.Decl)}
	s.collect(fi.Decl.Body)
	sum := s.replay(nil)
	if sum.equal(fi.Arena) {
		return false
	}
	fi.Arena = sum
	return true
}

// arenaFinding is one use-after-mutation occurrence.
type arenaFinding struct {
	pos     token.Pos
	what    string // what was used
	mutDesc string // what invalidated it
	mutPos  token.Pos
}

// arenaFindings re-runs the converged scan collecting violations, for
// the top-level body and each function literal as separate scopes.
func arenaFindings(p *Program, fi *FuncInfo) []arenaFinding {
	var out []arenaFinding
	for _, body := range arenaScopes(fi.Decl.Body) {
		s := &arenaScan{prog: p, fi: fi, params: paramObjs(fi.Pkg, fi.Decl)}
		s.collect(body)
		s.replay(&out)
	}
	return out
}

// arenaScopes returns body plus every function-literal body inside it;
// each is replayed independently because a literal's statements do not
// execute at their textual position.
func arenaScopes(body *ast.BlockStmt) []*ast.BlockStmt {
	scopes := []*ast.BlockStmt{body}
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			scopes = append(scopes, lit.Body)
		}
		return true
	})
	return scopes
}

// paramBitFor maps a store-receiver expression to its parameter bit,
// or -1 when the store is not (an identifier naming) a parameter.
func (s *arenaScan) paramBitFor(e ast.Expr) int {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return -1
	}
	info := s.fi.Pkg.Info
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	for i, p := range s.params {
		if p != nil && p == obj {
			return i
		}
	}
	return -1
}

// collect walks body (skipping nested function literals, which are
// separate scopes) and records view creations, store mutations, view
// uses, and returns.
func (s *arenaScan) collect(body *ast.BlockStmt) {
	info := s.fi.Pkg.Info
	viewObjs := make(map[types.Object]bool)

	// Pass 1: find every object that is ever assigned a view, so pass 2
	// knows which ident uses to record.
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok && n.Pos() != body.Pos() {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if !s.isViewExpr(rhs) {
				continue
			}
			// One RHS can bind multiple LHS (d, o := st.Raw()): every
			// binding aliases the arena.
			lo, hi := i, i+1
			if len(as.Rhs) == 1 {
				lo, hi = 0, len(as.Lhs)
			}
			for _, l := range as.Lhs[lo:hi] {
				if id, ok := ast.Unparen(l).(*ast.Ident); ok && id.Name != "_" {
					if obj := info.Defs[id]; obj != nil {
						viewObjs[obj] = true
					} else if obj := info.Uses[id]; obj != nil {
						viewObjs[obj] = true
					}
				}
			}
		}
		return true
	})

	// Pass 2: record events.
	ast.Inspect(body, func(n ast.Node) bool {
		switch nn := n.(type) {
		case *ast.FuncLit:
			if nn.Body != body {
				return false
			}
		case *ast.AssignStmt:
			for i, rhs := range nn.Rhs {
				key, bit, ok := s.viewSource(rhs)
				if !ok {
					continue
				}
				lo, hi := i, i+1
				if len(nn.Rhs) == 1 {
					lo, hi = 0, len(nn.Lhs)
				}
				for _, l := range nn.Lhs[lo:hi] {
					id, isID := ast.Unparen(l).(*ast.Ident)
					if !isID || id.Name == "_" {
						continue
					}
					obj := info.Defs[id]
					if obj == nil {
						obj = info.Uses[id]
					}
					if obj != nil {
						s.events = append(s.events, arenaEvent{
							pos: l.Pos(), kind: evView, obj: obj, key: key, paramBit: bit,
						})
					}
				}
			}
		case *ast.CallExpr:
			if mut, key, bit, desc := s.mutationOf(nn); mut {
				s.events = append(s.events, arenaEvent{
					pos: nn.Pos(), kind: evMutate, key: key, paramBit: bit, desc: desc,
				})
			}
		case *ast.Ident:
			if obj := info.Uses[nn]; obj != nil && viewObjs[obj] {
				s.events = append(s.events, arenaEvent{pos: nn.Pos(), kind: evUse, obj: obj})
			}
		case *ast.ReturnStmt:
			for i, e := range nn.Results {
				s.events = append(s.events, arenaEvent{
					pos: nn.Pos(), kind: evReturn, retIndex: i, retExpr: e,
				})
			}
		}
		return true
	})

	sort.SliceStable(s.events, func(i, j int) bool { return s.events[i].pos < s.events[j].pos })
}

// isViewExpr reports whether e evaluates to an arena view.
func (s *arenaScan) isViewExpr(e ast.Expr) bool {
	_, _, ok := s.viewSource(e)
	return ok
}

// viewSource resolves e to the store it views: st.Set(i)/st.Raw()
// directly, a slice of an existing view (v[1:] still aliases), or a
// call whose summarized callee returns a view of one of its arguments.
func (s *arenaScan) viewSource(e ast.Expr) (key string, paramBit int, ok bool) {
	info := s.fi.Pkg.Info
	switch ee := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if isSetStoreCall(info, ee) && setStoreViewers[methodCallName(ee)] {
			sel := ast.Unparen(ee.Fun).(*ast.SelectorExpr)
			return storeKey(sel.X), s.paramBitFor(sel.X), true
		}
		if fi := s.prog.callee(info, ee); fi != nil && fi.Arena != nil {
			for _, rv := range fi.Arena.ResultViews {
				if rv == 0 {
					continue
				}
				for j := 0; j < 64; j++ {
					if rv&(1<<uint(j)) == 0 {
						continue
					}
					if arg := argExprAt(fi, ee, j); arg != nil {
						return storeKey(arg), s.paramBitFor(arg), true
					}
				}
			}
		}
	case *ast.SliceExpr:
		return s.viewSource(ee.X)
	case *ast.IndexExpr:
		return s.viewSource(ee.X)
	}
	return "", -1, false
}

// mutationOf classifies call as a store mutation: a direct mutator
// method, or a call whose summarized callee mutates one of its
// SetStore arguments.
func (s *arenaScan) mutationOf(call *ast.CallExpr) (mut bool, key string, paramBit int, desc string) {
	info := s.fi.Pkg.Info
	if isSetStoreCall(info, call) {
		name := methodCallName(call)
		if setStoreMutators[name] {
			sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			return true, storeKey(sel.X), s.paramBitFor(sel.X), name + " (may realloc or retire the arena)"
		}
		return false, "", -1, ""
	}
	if fi := s.prog.callee(info, call); fi != nil && fi.Arena != nil && fi.Arena.Mutates != 0 {
		for j := 0; j < 64; j++ {
			if fi.Arena.Mutates&(1<<uint(j)) == 0 {
				continue
			}
			if arg := argExprAt(fi, call, j); arg != nil {
				return true, storeKey(arg), s.paramBitFor(arg),
					"call to " + fi.name() + ", which mutates it"
			}
		}
	}
	return false, "", -1, ""
}

// argExprAt returns the caller-side expression bound to callee
// parameter j (paramObjs index space: receiver first), or nil.
func argExprAt(fi *FuncInfo, call *ast.CallExpr, j int) ast.Expr {
	if hasRecv(fi.Decl) {
		if j == 0 {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				return sel.X
			}
			return nil
		}
		j--
	}
	if j < len(call.Args) {
		return call.Args[j]
	}
	return nil
}

// replay walks the position-ordered events, reporting uses of views
// whose store has been mutated since the view was taken (when findings
// is non-nil), and returns the function's summary.
func (s *arenaScan) replay(findings *[]arenaFinding) *ArenaSummary {
	sum := &ArenaSummary{ResultViews: make([]uint64, numResults(s.fi.Decl))}

	type viewState struct {
		key      string
		paramBit int
		mutDesc  string // non-empty once invalidated
		mutPos   token.Pos
	}
	views := make(map[types.Object]*viewState)

	for _, ev := range s.events {
		switch ev.kind {
		case evView:
			views[ev.obj] = &viewState{key: ev.key, paramBit: ev.paramBit}
		case evMutate:
			if ev.paramBit >= 0 && ev.paramBit < 64 {
				sum.Mutates |= 1 << uint(ev.paramBit)
			}
			for _, vs := range views {
				if vs.key == ev.key && vs.mutDesc == "" {
					vs.mutDesc = ev.desc
					vs.mutPos = ev.pos
				}
			}
		case evUse:
			if vs, ok := views[ev.obj]; ok && vs.mutDesc != "" && findings != nil {
				*findings = append(*findings, arenaFinding{
					pos: ev.pos, what: ev.obj.Name(), mutDesc: vs.mutDesc, mutPos: vs.mutPos,
				})
			}
		case evReturn:
			if ev.retIndex >= len(sum.ResultViews) {
				continue
			}
			// A returned view of a parameter store makes this function a
			// view constructor for that parameter.
			if key, bit, ok := s.viewSource(ev.retExpr); ok && bit >= 0 && bit < 64 {
				_ = key
				sum.ResultViews[ev.retIndex] |= 1 << uint(bit)
			}
			if id, ok := ast.Unparen(ev.retExpr).(*ast.Ident); ok {
				if obj := s.fi.Pkg.Info.Uses[id]; obj != nil {
					if vs, ok := views[obj]; ok && vs.paramBit >= 0 && vs.paramBit < 64 {
						sum.ResultViews[ev.retIndex] |= 1 << uint(vs.paramBit)
					}
				}
			}
		}
	}
	return sum
}

// ArenaAlias is the inter-procedural arena view-lifetime analyzer.
var ArenaAlias = &Analyzer{
	Name: "arenaalias",
	Doc: "a SetStore arena view (Set/Raw sub-slice) must not be used after Append/AppendWith/AppendStore/AppendRange/Grow/Reset, " +
		"which may realloc or retire the backing array — even when the mutation happens inside a callee",
	NeedsProgram: true,
	Run:          runArenaAlias,
}

func runArenaAlias(pass *Pass) {
	if pass.Prog == nil {
		return
	}
	for _, fi := range pass.Prog.funcsIn(pass.PkgPath) {
		for _, f := range arenaFindings(pass.Prog, fi) {
			mutLine := pass.Fset.Position(f.mutPos).Line
			pass.Reportf(f.pos,
				"arena view %q used after %s at line %d; Set/Raw sub-slices are only valid until the next "+
					"Append/AppendWith/AppendStore/AppendRange/Grow/Reset — re-take the view after mutating, or copy the data out first",
				f.what, f.mutDesc, mutLine)
		}
		reportSinkEscapes(pass, fi)
	}
}

// reportSinkEscapes flags views of a rotating-sink batch that outlive the
// sink invocation: inside a func literal passed directly to a rotatingSinks
// call, any view of the literal's SetStore parameter assigned to storage
// declared outside the literal (a captured variable, or any field/element)
// escapes — and the caller resets the batch arena as soon as the sink
// returns.
func reportSinkEscapes(pass *Pass, fi *FuncInfo) {
	info := fi.Pkg.Info
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !rotatingSinks[callName(call)] {
			return true
		}
		for _, arg := range call.Args {
			lit, ok := ast.Unparen(arg).(*ast.FuncLit)
			if !ok {
				continue
			}
			batches := batchParams(info, lit)
			if len(batches) == 0 {
				continue
			}
			for _, f := range sinkEscapes(info, lit, batches) {
				pass.Reportf(f.pos,
					"view of rotating arena batch %q escapes the sink passed to %s; the batch is reset when the "+
						"sink returns — copy the data out (e.g. AppendStore or an explicit append) instead",
					f.what, callName(call))
			}
		}
		return true
	})
}

// callName resolves the bare name of a call target: the method name for a
// selector call, the identifier for a plain call.
func callName(call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return fn.Sel.Name
	case *ast.Ident:
		return fn.Name
	}
	return ""
}

// batchParams returns the objects of lit's parameters whose type is a
// SetStore — the borrowed batches of a rotating sink.
func batchParams(info *types.Info, lit *ast.FuncLit) map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil && isSetStoreType(obj.Type()) {
				out[obj] = true
			}
		}
	}
	return out
}

// sinkEscapes scans a sink literal's body for assignments that bind a view
// of a batch parameter to storage outliving the invocation: an identifier
// declared outside the literal, or any field/index expression (whose
// container's lifetime the analysis cannot bound).
func sinkEscapes(info *types.Info, lit *ast.FuncLit, batches map[types.Object]bool) []arenaFinding {
	// viewLocals are sink-scoped bindings that hold a batch view (data, _ :=
	// batch.Raw(); v := batch.Set(0)); re-exporting one escapes just the same.
	viewLocals := map[types.Object]bool{}
	var isBatchView func(e ast.Expr) bool
	isBatchView = func(e ast.Expr) bool {
		for {
			switch ee := ast.Unparen(e).(type) {
			case *ast.SliceExpr:
				e = ee.X
				continue
			case *ast.IndexExpr:
				// v[0] of a []int32 is a scalar copy; only element types
				// that still alias memory (slices, pointers) propagate.
				switch info.TypeOf(ee).Underlying().(type) {
				case *types.Slice, *types.Pointer:
					e = ee.X
					continue
				}
				return false
			case *ast.Ident:
				obj := info.Uses[ee]
				return obj != nil && viewLocals[obj]
			case *ast.CallExpr:
				if !setStoreViewers[callName(ee)] {
					return false
				}
				sel, ok := ast.Unparen(ee.Fun).(*ast.SelectorExpr)
				if !ok {
					return false
				}
				id, ok := ast.Unparen(sel.X).(*ast.Ident)
				return ok && batches[info.Uses[id]]
			}
			return false
		}
	}
	// Fixed point: a local bound to a view of a view is itself a view.
	for changed := true; changed; {
		changed = false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, rhs := range as.Rhs {
				if !isBatchView(rhs) {
					continue
				}
				lo, hi := i, i+1
				if len(as.Rhs) == 1 {
					lo, hi = 0, len(as.Lhs)
				}
				for _, l := range as.Lhs[lo:hi] {
					id, ok := ast.Unparen(l).(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					if obj := info.Defs[id]; obj != nil && !viewLocals[obj] {
						viewLocals[obj] = true
						changed = true
					}
				}
			}
			return true
		})
	}
	var out []arenaFinding
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if !isBatchView(rhs) {
				continue
			}
			lo, hi := i, i+1
			if len(as.Rhs) == 1 {
				lo, hi = 0, len(as.Lhs)
			}
			for _, l := range as.Lhs[lo:hi] {
				switch lhs := ast.Unparen(l).(type) {
				case *ast.Ident:
					if lhs.Name == "_" {
						continue
					}
					obj := info.Defs[lhs]
					if obj == nil {
						obj = info.Uses[lhs]
					}
					// A fresh := binding inside the literal is a local borrow;
					// writing to an object declared before the literal escapes.
					if obj != nil && (obj.Pos() < lit.Pos() || obj.Pos() > lit.End()) {
						out = append(out, arenaFinding{pos: l.Pos(), what: obj.Name()})
					}
				default:
					// Fields, map entries and slice elements outlive the
					// invocation as far as this analysis can tell.
					out = append(out, arenaFinding{pos: l.Pos(), what: types.ExprString(l)})
				}
			}
		}
		return true
	})
	return out
}
