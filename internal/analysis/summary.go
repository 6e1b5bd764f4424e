package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file extracts FuncFacts from type-checked source: the per-
// function summaries (blocking sites, transport sends, call edges,
// return-alias lattice values, map-order taint) the interprocedural
// passes consume. Extraction is flow-approximate in the same spirit as
// the syntax passes: source order within a frame, nested function
// literals excluded (a closure runs on its own schedule; its body is not
// this frame's effect).

// ComputeFacts summarizes every function declared in lp into store.
// The package's //lint:allow index suppresses individual blocking sites
// at their source (an allow for lockheld on the flagged line), which is
// what keeps a triaged callee from re-flagging every caller that holds a
// lock.
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

// summarizer walks one function frame.
type summarizer struct {
	fset  *token.FileSet
	allow *allowIndex
	fact  *FuncFact

	aliasEnv

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
		mapAppended: map[types.Object]bool{},
		sorted:      map[types.Object]bool{},
		fact:        &FuncFact{ID: FuncID(fn)},
	}
	s.walk(fd.Body)
	return s.fact
}

// addBlock records one potentially-blocking site unless suppressed with
// //lint:allow lockheld.
func (s *summarizer) addBlock(p token.Pos, what string) {
	if s.allow != nil && s.allow.allows(s.fset.Position(p), LockHeld.Name) {
		return
	}
	s.fact.Blocks = append(s.fact.Blocks, Site{Pos: p, What: what})
}

// walk classifies every effect under n in source order: calls, the
// assignments the alias lattice tracks, return sites, appends inside a
// range over a map. Function literals are skipped, and of a go statement
// only the arguments, evaluated here, are this frame's.
func (s *summarizer) walk(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			for _, a := range t.Call.Args {
				s.walk(a)
			}
			return false
		case *ast.RangeStmt:
			s.noteMapAppends(t)
		case *ast.AssignStmt:
			for _, e := range t.Rhs {
				s.walk(e)
			}
			for _, e := range t.Lhs {
				s.walk(e)
			}
			s.track(t)
			return false
		case *ast.ReturnStmt:
			for _, e := range t.Results {
				s.walk(e)
				s.recordReturn(e)
			}
			return false
		case *ast.CallExpr:
			s.call(t)
		}
		return true
	})
}

// noteMapAppends marks the outer locals a range over a map appends to:
// the sortedsource taint.
func (s *summarizer) noteMapAppends(rs *ast.RangeStmt) {
	t := s.info.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, overMap := t.Underlying().(*types.Map); !overMap {
		return
	}
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

// call classifies one call expression: sort laundering, transport send,
// blocking external effect, and the call-graph edge.
func (s *summarizer) call(call *ast.CallExpr) {
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

	s.edge(call)
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

// edge records the call-graph edge: a module callee, or the dynamic key
// of a call through a module interface.
func (s *summarizer) edge(call *ast.CallExpr) {
	if key, ok := dynamicCalleeKey(s.info, call); ok {
		s.fact.Calls = append(s.fact.Calls, CallEdge{Pos: call.Pos(), Callee: key, Dynamic: true})
		return
	}
	if fn, ok := staticCallee(s.info, call); ok {
		if id := FuncID(fn); moduleOrTestdata(id) {
			s.fact.Calls = append(s.fact.Calls, CallEdge{Pos: call.Pos(), Callee: id, ParamArgs: s.paramArgs(call)})
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
