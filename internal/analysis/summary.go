package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file extracts FuncFacts from type-checked source: the per-
// function blocking sites and call edges lockheld follows. Extraction
// is flow-approximate in the same spirit as the syntax passes: nested
// function literals are excluded (a closure runs on its own schedule;
// its body is not this frame's effect).

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
			s := &summarizer{fset: fset, info: lp.Info, allow: allow, fact: &FuncFact{ID: FuncID(obj)}}
			s.walk(fd.Body)
			store.Funcs[s.fact.ID] = s.fact
		}
	}
	registerImpls(lp, store)
	store.blockMemo = nil
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
	info  *types.Info
	allow *allowIndex
	fact  *FuncFact
}

// addBlock records one potentially-blocking site unless suppressed with
// //lint:allow lockheld.
func (s *summarizer) addBlock(p token.Pos, what string) {
	if s.allow != nil && s.allow.allows(s.fset.Position(p), LockHeld.Name) {
		return
	}
	s.fact.Blocks = append(s.fact.Blocks, Site{Pos: p, What: what})
}

// walk records every call under n in source order: a blocking site when
// it is a transport send or a blocking external effect, and the
// call-graph edge. Function literals are skipped, and of a go statement
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
		case *ast.CallExpr:
			if method, ok := transportSendCall(s.info, t); ok {
				s.addBlock(t.Pos(), "transport."+method+" performs (simulated) network I/O")
			} else if what, ok := blockingExternal(s.info, t); ok {
				s.addBlock(t.Pos(), what)
			}
			s.edge(t)
		}
		return true
	})
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
			s.fact.Calls = append(s.fact.Calls, CallEdge{Pos: call.Pos(), Callee: id})
		}
	}
}

// --- classifiers shared with lockheld -----------------------------------

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
