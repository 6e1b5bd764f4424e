package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file extracts FuncFacts from type-checked source: the per-
// function summaries (allocation sites, blocking sites, transport
// sends, call edges, return-alias lattice values, map-order taint) the
// interprocedural passes consume. Extraction is flow-approximate in
// the same spirit as the syntax passes: source order within a frame,
// nested function literals excluded (a closure runs on its own
// schedule; its body is not this frame's effect), and a guard-aware
// notion of "cold" branches so the amortized-growth idiom the compact
// stores are built on (miss path allocates, steady-state path does
// not) is not reported as a hot-path allocation.

// HotpathMarker annotates a function whose steady-state path must be
// allocation-free, transitively through everything it calls within the
// module: `//lint:hotpath` in the doc comment.
const HotpathMarker = "lint:hotpath"

// ComputeFacts summarizes every function declared in lp into store.
// The package's //lint:allow index suppresses individual alloc/block
// sites at their source (an allow for hotalloc or lockheld on the
// flagged line), which is what keeps a triaged callee from re-flagging
// every hot caller.
func ComputeFacts(fset *token.FileSet, lp *LoadedPackage, store *FactStore) {
	allow := lp.allowIdx(fset)
	for _, f := range lp.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := lp.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fact := summarizeFunc(fset, lp, fd, obj, allow)
			store.Funcs[fact.ID] = fact
		}
	}
	registerImpls(lp, store)
	store.resetMemos()
}

// FuncID returns the canonical, fset-independent identifier of a
// function: "pkg/path.Name" or "pkg/path.(*Recv).Name".
func FuncID(fn *types.Func) string {
	fn = fn.Origin()
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := false
		if p, ok := t.(*types.Pointer); ok {
			t, ptr = p.Elem(), true
		}
		name := "?"
		if n, ok := t.(*types.Named); ok {
			name = n.Obj().Name()
		}
		if ptr {
			name = "*" + name
		}
		return pkg + ".(" + name + ")." + fn.Name()
	}
	return pkg + "." + fn.Name()
}

// hasHotpathMarker reports whether the function's doc comment carries
// //lint:hotpath.
func hasHotpathMarker(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == HotpathMarker || strings.HasPrefix(text, HotpathMarker+" ") {
			return true
		}
	}
	return false
}

// summarizer walks one function frame.
type summarizer struct {
	fset  *token.FileSet
	allow *allowIndex
	fact  *FuncFact

	aliasEnv
	fnStart token.Pos

	// map-order taint bookkeeping: locals appended to inside a
	// range-over-map, and locals later passed to a sort call.
	mapAppended map[types.Object]bool
	sorted      map[types.Object]bool
}

// lv is one value of the escape/alias lattice.
type lv struct {
	kind   string // RetFresh, RetRecv, RetParam, RetGlobal, RetUnknown, "call"
	param  int
	callee string
}

var lvUnknown = lv{kind: RetUnknown}

func (v lv) retString() string {
	if v.kind == "call" {
		return retCallPrefix + v.callee
	}
	return v.kind
}

func summarizeFunc(fset *token.FileSet, lp *LoadedPackage, fd *ast.FuncDecl, fn *types.Func, allow *allowIndex) *FuncFact {
	s := &summarizer{
		fset:        fset,
		allow:       allow,
		aliasEnv:    newAliasEnv(lp.Info, fd),
		fnStart:     fd.Pos(),
		mapAppended: map[types.Object]bool{},
		sorted:      map[types.Object]bool{},
		fact:        &FuncFact{ID: FuncID(fn), Hotpath: hasHotpathMarker(fd)},
	}
	s.stmts(fd.Body.List, false)
	return s.fact
}

// addAlloc records one allocation site unless it is suppressed at the
// source with //lint:allow hotalloc.
func (s *summarizer) addAlloc(p token.Pos, what string) {
	if s.allow != nil && s.allow.allows(s.fset.Position(p), HotAlloc.Name) {
		return
	}
	s.fact.Allocs = append(s.fact.Allocs, Site{Pos: p, What: what})
}

// addBlock records one potentially-blocking site unless suppressed with
// //lint:allow lockheld.
func (s *summarizer) addBlock(p token.Pos, what string) {
	if s.allow != nil && s.allow.allows(s.fset.Position(p), LockHeld.Name) {
		return
	}
	s.fact.Blocks = append(s.fact.Blocks, Site{Pos: p, What: what})
}

// --- statement walk with cold tracking ----------------------------------

func (s *summarizer) stmts(list []ast.Stmt, cold bool) {
	for i := 0; i < len(list); i++ {
		st := list[i]
		ifs, ok := st.(*ast.IfStmt)
		if !ok {
			s.stmt(st, cold)
			continue
		}
		if ifs.Init != nil {
			s.stmt(ifs.Init, cold)
		}
		s.exprs(ifs.Cond, cold)
		bodyCold := cold
		if missShaped(s.info, ifs.Cond) {
			bodyCold = true
		}
		s.stmts(ifs.Body.List, bodyCold)
		if ifs.Else != nil {
			s.stmt(ifs.Else, cold)
		}
		// The early-return-on-hit idiom: everything after
		// `if ok { return cached }` is the slow path.
		if hitShaped(s.info, ifs.Cond) && terminates(ifs.Body) {
			cold = true
		}
	}
}

func (s *summarizer) stmt(st ast.Stmt, cold bool) {
	switch t := st.(type) {
	case nil:
	case *ast.BlockStmt:
		s.stmts(t.List, cold)
	case *ast.IfStmt:
		s.stmts([]ast.Stmt{t}, cold)
	case *ast.ForStmt:
		s.stmt(t.Init, cold)
		s.exprs(t.Cond, cold)
		s.stmt(t.Post, cold)
		s.stmts(t.Body.List, cold)
	case *ast.RangeStmt:
		s.exprs(t.X, cold)
		s.rangeBody(t, cold)
	case *ast.SwitchStmt:
		s.stmt(t.Init, cold)
		s.exprs(t.Tag, cold)
		for _, c := range t.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					s.exprs(e, cold)
				}
				s.stmts(cc.Body, cold)
			}
		}
	case *ast.TypeSwitchStmt:
		s.stmt(t.Init, cold)
		s.stmt(t.Assign, cold)
		for _, c := range t.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.stmts(cc.Body, cold)
			}
		}
	case *ast.SelectStmt:
		for _, c := range t.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				s.stmt(cc.Comm, cold)
				s.stmts(cc.Body, cold)
			}
		}
	case *ast.LabeledStmt:
		s.stmt(t.Stmt, cold)
	case *ast.GoStmt:
		if !cold {
			s.addAlloc(t.Pos(), "go statement allocates a goroutine")
		}
		// The launched call runs on another goroutine: its args are
		// evaluated here, but the call itself is not this frame's
		// blocking or allocation effect.
		for _, a := range t.Call.Args {
			s.exprs(a, cold)
		}
	case *ast.DeferStmt:
		s.exprs(t.Call, cold)
	case *ast.ReturnStmt:
		for _, e := range t.Results {
			s.exprs(e, cold)
			s.recordReturn(e)
		}
	case *ast.AssignStmt:
		s.assign(t, cold)
	case *ast.ExprStmt:
		s.exprs(t.X, cold)
	case *ast.IncDecStmt:
		s.exprs(t.X, cold)
	case *ast.DeclStmt:
		if gd, ok := t.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						s.exprs(v, cold)
					}
				}
			}
		}
	case *ast.SendStmt:
		s.exprs(t.Chan, cold)
		s.exprs(t.Value, cold)
	}
}

// rangeBody walks a range statement's body, tracking appends of map
// elements into outer locals for the sortedsource taint.
func (s *summarizer) rangeBody(rs *ast.RangeStmt, cold bool) {
	overMap := false
	if t := s.info.TypeOf(rs.X); t != nil {
		_, overMap = t.Underlying().(*types.Map)
	}
	if overMap {
		ast.Inspect(rs.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltinCall(s.info, call, "append") {
					continue
				}
				if id, ok := as.Lhs[i].(*ast.Ident); ok {
					obj := s.info.ObjectOf(id)
					if obj != nil && obj.Pos().IsValid() && (obj.Pos() < rs.Pos() || obj.Pos() > rs.End()) {
						s.mapAppended[obj] = true
					}
				}
			}
			return true
		})
	}
	s.stmts(rs.Body.List, cold)
}

func (s *summarizer) assign(as *ast.AssignStmt, cold bool) {
	for _, e := range as.Rhs {
		s.exprs(e, cold)
	}
	for _, e := range as.Lhs {
		if _, ok := e.(*ast.Ident); !ok {
			s.exprs(e, cold)
		}
	}
	// String concatenation via +=.
	if as.Tok == token.ADD_ASSIGN && len(as.Lhs) == 1 && !cold {
		if bt, ok := s.info.TypeOf(as.Lhs[0]).(*types.Basic); ok && bt.Info()&types.IsString != 0 {
			s.addAlloc(as.Pos(), "string concatenation allocates")
		}
	}
	s.track(as)
}

func (s *summarizer) recordReturn(e ast.Expr) {
	t := s.info.TypeOf(e)
	if t == nil || !refType(t) {
		return
	}
	v := s.valueOf(e)
	s.fact.Returns = append(s.fact.Returns, v.retString())
	if id, ok := e.(*ast.Ident); ok {
		if obj := s.info.ObjectOf(id); obj != nil && s.mapAppended[obj] && !s.sorted[obj] {
			s.fact.MapReturn = true
		}
	}
}

// refType reports whether values of t can alias shared storage.
func refType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Pointer, *types.Chan:
		return true
	}
	return false
}

// --- expression walk ----------------------------------------------------

// exprs classifies every effect in one expression tree, skipping nested
// function literals (recorded as closure allocations, not walked).
func (s *summarizer) exprs(e ast.Expr, cold bool) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.FuncLit:
			if !cold && s.captures(t) {
				s.addAlloc(t.Pos(), "closure captures variables (allocates)")
			}
			return false
		case *ast.UnaryExpr:
			if t.Op == token.AND {
				if _, ok := t.X.(*ast.CompositeLit); ok && !cold {
					s.addAlloc(t.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if t.Op == token.ADD && !cold {
				if tv, ok := s.info.Types[t]; ok && tv.Value == nil {
					if bt, ok := tv.Type.Underlying().(*types.Basic); ok && bt.Info()&types.IsString != 0 {
						s.addAlloc(t.Pos(), "string concatenation allocates")
					}
				}
			}
		case *ast.CompositeLit:
			if !cold {
				switch s.litKind(t) {
				case "slice":
					s.addAlloc(t.Pos(), "slice literal allocates")
				case "map":
					s.addAlloc(t.Pos(), "map literal allocates")
				}
			}
		case *ast.CallExpr:
			if name, ok := builtinName(s.info, t); ok && name == "panic" {
				// A panicking path is cold by definition: neither the
				// panic nor the formatting of its argument is a
				// steady-state allocation.
				return false
			}
			s.call(t, cold)
		}
		return true
	})
}

func (s *summarizer) litKind(cl *ast.CompositeLit) string {
	t := s.info.TypeOf(cl)
	if t == nil {
		return ""
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return ""
}

// captures reports whether the function literal references a variable
// declared in the enclosing frame.
func (s *summarizer) captures(fl *ast.FuncLit) bool {
	found := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := s.info.Uses[id]
		if v, ok := obj.(*types.Var); ok && v.Pos().IsValid() &&
			v.Pos() >= s.fnStart && v.Pos() < fl.Pos() {
			found = true
		}
		return !found
	})
	return found
}

// call classifies one call expression: builtin allocation, conversion,
// external effect, transport send, boxing, and the call-graph edge.
func (s *summarizer) call(call *ast.CallExpr, cold bool) {
	// Builtins.
	if name, ok := builtinName(s.info, call); ok {
		switch name {
		case "append":
			if !cold {
				s.addAlloc(call.Pos(), "append may grow its backing array")
			}
		case "make":
			if !cold {
				s.addAlloc(call.Pos(), "make allocates")
			}
		case "new":
			if !cold {
				s.addAlloc(call.Pos(), "new allocates")
			}
		case "panic":
			// Panic paths are cold by definition; nothing below applies
			// (the argument boxing is not a steady-state allocation).
		}
		return
	}
	// Conversions.
	if tv, ok := s.info.Types[call.Fun]; ok && tv.IsType() {
		if !cold && len(call.Args) == 1 {
			if what, bad := allocConversion(s.info, tv.Type, call.Args[0], call); bad {
				s.addAlloc(call.Pos(), what)
			}
		}
		return
	}

	// A sort call launders the map-order taint of its arguments.
	if isSortCall(s.info, call) {
		for _, arg := range call.Args {
			ast.Inspect(arg, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := s.info.ObjectOf(id); obj != nil {
						s.sorted[obj] = true
					}
				}
				return true
			})
		}
	}

	// Transport sends.
	if method, ok := transportSendCall(s.info, call); ok {
		s.addBlock(call.Pos(), "transport."+method+" performs (simulated) network I/O")
		s.recordSendParams(call)
	} else if what, ok := blockingExternal(s.info, call); ok {
		s.addBlock(call.Pos(), what)
	}

	// fmt and external allocation heuristics.
	isFmt := false
	if pkg := callPackage(s.info, call); pkg != nil && pkg.Path() == "fmt" {
		isFmt = true
		if !cold {
			s.addAlloc(call.Pos(), "fmt call formats (allocates)")
		}
	}
	if !cold && !isFmt {
		s.boxedArgs(call)
	}

	// Call edge or tabled external effect.
	s.edge(call, cold, isFmt)
}

// recordSendParams feeds the SendsParams fact: a parameter sent as the
// message itself, or aliased into a message composite literal field.
func (s *summarizer) recordSendParams(call *ast.CallExpr) {
	add := func(i int) {
		for _, have := range s.fact.SendsParams {
			if have == i {
				return
			}
		}
		s.fact.SendsParams = append(s.fact.SendsParams, i)
		sort.Ints(s.fact.SendsParams)
	}
	consider := func(e ast.Expr) {
		v := s.valueOf(e)
		if v.kind == RetParam {
			add(v.param)
		}
		if cl, ok := messageLiteral(e); ok {
			for _, el := range cl.Elts {
				val := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					val = kv.Value
				}
				if t := s.info.TypeOf(val); t != nil && refType(t) {
					if fv := s.valueOf(val); fv.kind == RetParam {
						add(fv.param)
					}
				}
			}
		}
	}
	for _, arg := range call.Args {
		t := s.info.TypeOf(arg)
		if t == nil {
			continue
		}
		if refType(t) || isStructish(t) {
			consider(arg)
		}
	}
}

func isStructish(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	_, ok := t.Underlying().(*types.Struct)
	return ok
}

// messageLiteral unwraps T{...} and &T{...}.
func messageLiteral(e ast.Expr) (*ast.CompositeLit, bool) {
	switch t := e.(type) {
	case *ast.CompositeLit:
		return t, true
	case *ast.UnaryExpr:
		if t.Op == token.AND {
			if cl, ok := t.X.(*ast.CompositeLit); ok {
				return cl, true
			}
		}
	}
	return nil, false
}

// boxedArgs flags concrete, non-pointer-shaped arguments passed to
// interface-typed parameters: the value escapes to the heap.
func (s *summarizer) boxedArgs(call *ast.CallExpr) {
	tv, ok := s.info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	n := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= n-1:
			if sl, ok := sig.Params().At(n - 1).Type().(*types.Slice); ok {
				pt = sl.Elem()
			}
		case i < n:
			pt = sig.Params().At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := s.info.Types[arg]
		if at.Type == nil || at.IsNil() {
			continue
		}
		if _, already := at.Type.Underlying().(*types.Interface); already {
			continue
		}
		if pointerShaped(at.Type) {
			continue
		}
		s.addAlloc(arg.Pos(), "interface boxing of "+at.Type.String()+" allocates")
	}
}

// pointerShaped types fit an interface word without a heap copy.
func pointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Signature, *types.Map:
		return true
	}
	return false
}

// edge records the call-graph edge (module callees and module-interface
// dynamic keys) or tables an external effect in place.
func (s *summarizer) edge(call *ast.CallExpr, cold, isFmt bool) {
	if key, ok := dynamicCalleeKey(s.info, call); ok {
		s.fact.Calls = append(s.fact.Calls, CallEdge{
			Pos: call.Pos(), Callee: key, Dynamic: true, Cold: cold,
		})
		return
	}
	fn, ok := staticCallee(s.info, call)
	if !ok {
		return
	}
	id := FuncID(fn)
	if moduleOrTestdata(id) {
		s.fact.Calls = append(s.fact.Calls, CallEdge{
			Pos: call.Pos(), Callee: id, Cold: cold, ParamArgs: s.paramArgs(call),
		})
		return
	}
	// External static call: table the allocation heuristic — a fresh
	// string/slice/map result is an allocation we cannot see past.
	if cold || isFmt {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return
	}
	for i := 0; i < sig.Results().Len(); i++ {
		rt := sig.Results().At(i).Type()
		switch rt.Underlying().(type) {
		case *types.Slice, *types.Map:
			s.addAlloc(call.Pos(), shortFuncID(id)+" returns a fresh slice/map (allocates)")
			return
		case *types.Basic:
			if rt.Underlying().(*types.Basic).Info()&types.IsString != 0 {
				s.addAlloc(call.Pos(), shortFuncID(id)+" returns a fresh string (allocates)")
				return
			}
		}
	}
}

// paramArgs maps callee parameter indices to caller parameter indices
// for bare-identifier arguments.
func (s *summarizer) paramArgs(call *ast.CallExpr) map[int]int {
	var out map[int]int
	for i, arg := range call.Args {
		id, ok := arg.(*ast.Ident)
		if !ok {
			continue
		}
		obj := s.info.ObjectOf(id)
		if obj == nil {
			continue
		}
		if pi, isParam := s.params[obj]; isParam {
			if out == nil {
				out = map[int]int{}
			}
			out[i] = pi
		}
	}
	return out
}

// --- alias lattice ------------------------------------------------------

// aliasEnv is what the alias lattice knows of one function frame: its
// receiver, its parameters by index, and the lattice value last assigned
// to each local. The summarizer and sendalias evaluate through it.
type aliasEnv struct {
	info   *types.Info
	recv   types.Object
	params map[types.Object]int
	locals map[types.Object]lv
}

// newAliasEnv opens the frame of fd; a nil fd is a function literal,
// which has no receiver or parameter identity.
func newAliasEnv(info *types.Info, fd *ast.FuncDecl) aliasEnv {
	env := aliasEnv{info: info, params: map[types.Object]int{}, locals: map[types.Object]lv{}}
	if fd == nil {
		return env
	}
	if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
		env.recv = info.Defs[fd.Recv.List[0].Names[0]]
	}
	i := 0
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			env.params[info.Defs[name]] = i
			i++
		}
		if len(field.Names) == 0 {
			i++
		}
	}
	return env
}

// track updates the locals an assignment writes: one lattice value per
// identifier when the sides pair up, unknown for a multi-value
// assignment. Parameters and the receiver keep their identity.
func (env *aliasEnv) track(as *ast.AssignStmt) {
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		obj := env.info.ObjectOf(id)
		if _, isParam := env.params[obj]; obj == nil || isParam || obj == env.recv {
			continue
		}
		if len(as.Lhs) == len(as.Rhs) {
			env.locals[obj] = env.valueOf(as.Rhs[i])
		} else {
			env.locals[obj] = lvUnknown
		}
	}
}

// valueOf evaluates the alias lattice for one expression.
func (env *aliasEnv) valueOf(e ast.Expr) lv {
	switch t := e.(type) {
	case *ast.CompositeLit:
		return lv{kind: RetFresh}
	case *ast.ParenExpr:
		return env.valueOf(t.X)
	case *ast.UnaryExpr:
		if t.Op == token.AND {
			if _, ok := t.X.(*ast.CompositeLit); ok {
				return lv{kind: RetFresh}
			}
			return env.valueOf(t.X)
		}
	case *ast.StarExpr:
		return env.valueOf(t.X)
	case *ast.Ident:
		obj := env.info.ObjectOf(t)
		if obj == nil {
			return lvUnknown
		}
		if obj == env.recv {
			return lv{kind: RetRecv}
		}
		if i, ok := env.params[obj]; ok {
			return lv{kind: RetParam, param: i}
		}
		if v, ok := obj.(*types.Var); ok {
			if v.Parent() != nil && v.Parent().Parent() == types.Universe {
				return lv{kind: RetGlobal}
			}
			if val, ok := env.locals[obj]; ok {
				return val
			}
		}
		return lvUnknown
	case *ast.SelectorExpr:
		// pkg.Var is global state; x.Field aliases whatever x does.
		if id, ok := t.X.(*ast.Ident); ok {
			if pkgNameOf(env.info, id) != nil {
				if _, isVar := env.info.Uses[t.Sel].(*types.Var); isVar {
					return lv{kind: RetGlobal}
				}
				return lvUnknown
			}
		}
		return env.valueOf(t.X)
	case *ast.IndexExpr:
		return env.valueOf(t.X)
	case *ast.SliceExpr:
		return env.valueOf(t.X)
	case *ast.CallExpr:
		if name, ok := builtinName(env.info, t); ok {
			if name == "append" && len(t.Args) > 0 {
				base := env.valueOf(t.Args[0])
				if isNilish(env.info, t.Args[0]) {
					return lv{kind: RetFresh}
				}
				return base
			}
			if name == "make" || name == "new" {
				return lv{kind: RetFresh}
			}
			return lvUnknown
		}
		if tv, ok := env.info.Types[t.Fun]; ok && tv.IsType() {
			if len(t.Args) == 1 {
				return env.valueOf(t.Args[0])
			}
			return lvUnknown
		}
		if fn, ok := staticCallee(env.info, t); ok {
			id := FuncID(fn)
			if moduleOrTestdata(id) {
				return lv{kind: "call", callee: id}
			}
			if isKnownFreshExternal(id) {
				return lv{kind: RetFresh}
			}
		}
		return lvUnknown
	}
	return lvUnknown
}

// isKnownFreshExternal lists stdlib helpers whose results are always
// freshly allocated copies.
func isKnownFreshExternal(id string) bool {
	switch id {
	case "slices.Clone", "maps.Clone", "bytes.Clone", "strings.Clone":
		return true
	}
	return false
}

// isNilish matches nil and []T(nil)-style conversion roots.
func isNilish(info *types.Info, e ast.Expr) bool {
	if tv, ok := info.Types[e]; ok && tv.IsNil() {
		return true
	}
	if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			return isNilish(info, call.Args[0])
		}
	}
	return false
}

// --- shared classifiers (also used by the passes) -----------------------

func builtinName(info *types.Info, call *ast.CallExpr) (string, bool) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return "", false
	}
	if _, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin {
		return "", false
	}
	return id.Name, true
}

func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	got, ok := builtinName(info, call)
	return ok && got == name
}

// allocConversion reports conversions that must copy: string <-> byte/
// rune slices, and integer/rune -> string.
func allocConversion(info *types.Info, to types.Type, arg ast.Expr, whole *ast.CallExpr) (string, bool) {
	if tv, ok := info.Types[whole]; ok && tv.Value != nil {
		return "", false // constant-folded
	}
	from := info.TypeOf(arg)
	if from == nil {
		return "", false
	}
	toB, toIsBasic := to.Underlying().(*types.Basic)
	fromB, fromIsBasic := from.Underlying().(*types.Basic)
	toIsString := toIsBasic && toB.Info()&types.IsString != 0
	fromIsString := fromIsBasic && fromB.Info()&types.IsString != 0
	switch {
	case toIsString && !fromIsString:
		return "conversion to string allocates", true
	case !toIsString && fromIsString:
		if _, isSlice := to.Underlying().(*types.Slice); isSlice {
			return "conversion of string to byte/rune slice allocates", true
		}
	}
	return "", false
}

// isTransportPkg matches the real transport package and the short
// testdata stand-in.
func isTransportPkg(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == "peertrack/internal/transport" ||
		path == "transport" ||
		strings.HasSuffix(path, "/transport")
}

// transportSendCall matches method calls that hand a message to the
// transport layer: Call/Send on a type (or interface) declared in a
// transport package.
func transportSendCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Call" && sel.Sel.Name != "Send") {
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	if isTransportPkg(fn.Pkg()) {
		return sel.Sel.Name, true
	}
	// Interface method: the method's package is where the interface is
	// declared, already covered above; concrete wrappers in other
	// packages are not sends.
	return "", false
}

// blockingExternal classifies calls that may block on I/O or the
// clock: time waits, the net package, and writes through an io.Writer
// interface whose dynamic type could be a socket.
func blockingExternal(info *types.Info, call *ast.CallExpr) (string, bool) {
	if name, ok := selectorCall(info, call.Fun, "time"); ok {
		switch name {
		case "Sleep", "After", "Tick":
			return "time." + name + " waits on the wall clock", true
		}
	}
	// fmt.Fprint* writing to an interface-typed destination.
	if name, ok := selectorCall(info, call.Fun, "fmt"); ok && strings.HasPrefix(name, "Fprint") && len(call.Args) > 0 {
		if t := info.TypeOf(call.Args[0]); t != nil {
			if _, isIface := t.Underlying().(*types.Interface); isIface {
				return "fmt." + name + " writes to an io.Writer interface (may be a socket)", true
			}
		}
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	switch fn.Pkg().Path() {
	case "net", "net/http", "os/exec":
		return fn.Pkg().Path() + "." + fn.Name() + " performs network/process I/O", true
	}
	// Interface writes: Write/WriteString/ReadFrom/Flush on an
	// interface declared in io/bufio/net/http.
	if sig != nil && sig.Recv() != nil {
		if _, isIface := sig.Recv().Type().Underlying().(*types.Interface); isIface {
			switch fn.Pkg().Path() {
			case "io", "bufio", "net/http", "net":
				switch fn.Name() {
				case "Write", "WriteString", "ReadFrom", "Flush", "Read":
					return fn.Pkg().Path() + "." + fn.Name() + " on an interface value may be socket I/O", true
				}
			}
		}
	}
	return "", false
}

// callPackage returns the defining package of a statically-resolved
// callee, or nil.
func callPackage(info *types.Info, call *ast.CallExpr) *types.Package {
	if fn, ok := staticCallee(info, call); ok {
		return fn.Pkg()
	}
	return nil
}

// staticCallee resolves a call to the concrete function it invokes, if
// static.
func staticCallee(info *types.Info, call *ast.CallExpr) (*types.Func, bool) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, ok := info.Uses[fun].(*types.Func)
		return fn, ok
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if _, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
				return nil, false // dynamic dispatch
			}
		}
		fn, ok := info.Uses[fun.Sel].(*types.Func)
		return fn, ok
	}
	return nil, false
}

// dynamicCalleeKey returns the CHA lookup key for a call through a
// named module-internal interface.
func dynamicCalleeKey(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	selection, ok := info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return "", false
	}
	recv := selection.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return "", false
	}
	if _, isIface := named.Underlying().(*types.Interface); !isIface {
		return "", false
	}
	pkg := named.Obj().Pkg()
	if pkg == nil || !moduleOrTestdata(pkg.Path()+".x") {
		return "", false
	}
	return ifaceKey(pkg.Path(), named.Obj().Name(), sel.Sel.Name), true
}

func ifaceKey(pkgPath, ifaceName, method string) string {
	return "iface:" + pkgPath + "." + ifaceName + "." + method
}

// registerImpls records, for every named concrete type declared in lp,
// which visible module-internal interfaces it implements — the CHA
// index dynamic call edges resolve against. Visibility is from the
// implementing package: its own scope plus everything it (transitively)
// imports, which is the same view every driver mode can reconstruct.
func registerImpls(lp *LoadedPackage, store *FactStore) {
	ifaces := map[string]*types.Interface{}
	gatherInterfaces(lp.Pkg, ifaces, map[*types.Package]bool{})

	keys := make([]string, 0, len(ifaces))
	for k := range ifaces {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	scope := lp.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue
		}
		ptr := types.NewPointer(named)
		for _, key := range keys {
			iface := ifaces[key]
			if iface.NumMethods() == 0 {
				continue
			}
			if !types.Implements(ptr, iface) && !types.Implements(named, iface) {
				continue
			}
			ms := types.NewMethodSet(ptr)
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				sel := ms.Lookup(m.Pkg(), m.Name())
				if sel == nil {
					sel = ms.Lookup(lp.Pkg, m.Name())
				}
				if sel == nil {
					continue
				}
				fn, ok := sel.Obj().(*types.Func)
				if !ok {
					continue
				}
				id := FuncID(fn)
				if !moduleOrTestdata(id) {
					continue
				}
				mk := key + "." + m.Name()
				merged := append(store.Impls[mk], id)
				sort.Strings(merged)
				store.Impls[mk] = dedupStrings(merged)
			}
		}
	}
}

// gatherInterfaces collects named module-internal interfaces visible
// from pkg, keyed by "iface:<pkg>.<Name>" (without the method suffix).
func gatherInterfaces(pkg *types.Package, out map[string]*types.Interface, seen map[*types.Package]bool) {
	if pkg == nil || seen[pkg] {
		return
	}
	seen[pkg] = true
	if moduleOrTestdata(pkg.Path() + ".x") {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			iface, ok := tn.Type().Underlying().(*types.Interface)
			if !ok {
				continue
			}
			out["iface:"+pkg.Path()+"."+name] = iface
		}
	}
	for _, imp := range pkg.Imports() {
		gatherInterfaces(imp, out, seen)
	}
}

// --- cold-branch shapes -------------------------------------------------

// missShaped conditions guard init/slow paths: `!ok`, `x == nil`,
// `err != nil`, `len(x) == 0`.
func missShaped(info *types.Info, cond ast.Expr) bool {
	switch c := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		return c.Op == token.NOT
	case *ast.BinaryExpr:
		x, y := ast.Unparen(c.X), ast.Unparen(c.Y)
		switch c.Op {
		case token.EQL:
			if isNilIdent(info, x) || isNilIdent(info, y) {
				other := x
				if isNilIdent(info, x) {
					other = y
				}
				return !isErrorType(info.TypeOf(other))
			}
			return isLenZero(info, x, y) || isLenZero(info, y, x)
		case token.NEQ:
			if isNilIdent(info, x) || isNilIdent(info, y) {
				other := x
				if isNilIdent(info, x) {
					other = y
				}
				return isErrorType(info.TypeOf(other))
			}
		}
	}
	return false
}

// hitShaped conditions guard fast-path early returns: `ok`, `x != nil`,
// `err == nil`, `len(x) > 0`.
func hitShaped(info *types.Info, cond ast.Expr) bool {
	switch c := ast.Unparen(cond).(type) {
	case *ast.Ident:
		t := info.TypeOf(c)
		if bt, ok := t.(*types.Basic); ok && bt.Info()&types.IsBoolean != 0 {
			return true
		}
	case *ast.BinaryExpr:
		x, y := ast.Unparen(c.X), ast.Unparen(c.Y)
		switch c.Op {
		case token.NEQ:
			if isNilIdent(info, x) || isNilIdent(info, y) {
				other := x
				if isNilIdent(info, x) {
					other = y
				}
				return !isErrorType(info.TypeOf(other))
			}
		case token.EQL:
			if isNilIdent(info, x) || isNilIdent(info, y) {
				other := x
				if isNilIdent(info, x) {
					other = y
				}
				return isErrorType(info.TypeOf(other))
			}
		}
	}
	return false
}

func isNilIdent(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}

func isLenZero(info *types.Info, lenSide, zeroSide ast.Expr) bool {
	call, ok := lenSide.(*ast.CallExpr)
	if !ok || !isBuiltinCall(info, call, "len") {
		return false
	}
	tv, ok := info.Types[zeroSide]
	return ok && tv.Value != nil && tv.Value.String() == "0"
}

func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// terminates reports whether a block always transfers control out
// (return, panic, or an unconditional branch).
func terminates(b *ast.BlockStmt) bool {
	if b == nil || len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return last.Tok == token.BREAK || last.Tok == token.CONTINUE || last.Tok == token.GOTO
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(last)
	}
	return false
}
