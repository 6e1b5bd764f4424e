package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockHeld flags transport I/O, net I/O, and clock waits reachable
// while a sync.Mutex or sync.RWMutex is held.
//
// The live trackd stack (and the deterministic core under it) must
// never block on the network while holding a store mutex: the in-memory
// transport dispatches synchronously, so a handler that re-enters the
// sender deadlocks, and on the real TCP transport the same shape turns
// a slow peer into a stalled store. The pass tracks lock state through
// straight-line code and branches (a lock is considered held after an
// if only when both arms leave it held — releasing before Call in
// either arm clears it), treats `defer mu.Unlock()` as held-to-end, and
// follows calls through the interprocedural facts: a helper that sleeps
// three frames down is flagged at the call edge with the full chain.
//
// Goroutines launched while the lock is held run concurrently and are
// not this frame's critical section; closure bodies get their own
// frame.
var LockHeld = &Analyzer{
	Name:      "lockheld",
	Doc:       "flag transport/net/clock blocking reachable while a sync mutex is held",
	Run:       runLockHeld,
	AppliesTo: func(importPath string) bool { return lockHeldPackages[NormalizeImportPath(importPath)] },
}

// lockHeldPackages are the packages whose mutexes guard state the live
// stack serves from. Keep in sync with DESIGN.md §8.
var lockHeldPackages = map[string]bool{
	"peertrack/internal/core":      true,
	"peertrack/internal/ctlapi":    true,
	"peertrack/internal/telemetry": true,
	"peertrack/internal/gossip":    true,
	"peertrack/cmd/trackd":         true,
}

// heldLock records one acquisition still in effect.
type heldLock struct {
	method string // Lock or RLock
	at     token.Pos
}

func runLockHeld(pass *Pass) error {
	w := &lockWalker{pass: pass, facts: pass.facts()}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					w.walk(fn.Body.List, map[string]heldLock{})
				}
			case *ast.FuncLit:
				w.walk(fn.Body.List, map[string]heldLock{})
				return false
			}
			return true
		})
	}
	return nil
}

type lockWalker struct {
	pass  *Pass
	facts *FactStore
}

// walk processes stmts sequentially, mutating held. Returns true when
// control definitely leaves the sequence.
func (w *lockWalker) walk(stmts []ast.Stmt, held map[string]heldLock) bool {
	for _, st := range stmts {
		if w.stmt(st, held) {
			return true
		}
	}
	return false
}

func (w *lockWalker) stmt(st ast.Stmt, held map[string]heldLock) bool {
	switch t := st.(type) {
	case *ast.ExprStmt:
		if key, method, call, ok := lockOp(w.pass.TypesInfo, t.X); ok {
			switch method {
			case "Lock", "RLock":
				held[key] = heldLock{method: method, at: call.Pos()}
			case "Unlock", "RUnlock":
				delete(held, key)
			}
			return false
		}
		w.check(t.X, held)
		if isPanicStmt(t) {
			return true
		}
	case *ast.DeferStmt:
		// defer mu.Unlock() keeps the lock held to function end — which
		// is exactly the state `held` already records; nothing to do.
		// Other deferred calls run at return, outside this walk's scope.
		if _, _, _, ok := lockOp(w.pass.TypesInfo, t.Call); !ok {
			w.check(t.Call, held)
		}
	case *ast.GoStmt:
		// The spawned goroutine does not run in this critical section;
		// only the argument expressions are evaluated here.
		for _, a := range t.Call.Args {
			w.check(a, held)
		}
	case *ast.ReturnStmt:
		for _, e := range t.Results {
			w.check(e, held)
		}
		return true
	case *ast.BranchStmt:
		return t.Tok != token.FALLTHROUGH
	case *ast.BlockStmt:
		return w.walk(t.List, held)
	case *ast.LabeledStmt:
		return w.stmt(t.Stmt, held)
	case *ast.IfStmt:
		return w.ifStmt(t, held)
	case *ast.ForStmt:
		w.stmt(t.Init, held)
		w.check(t.Cond, held)
		body := copyHeld(held)
		w.walk(t.Body.List, body)
		w.stmt(t.Post, body)
	case *ast.RangeStmt:
		w.check(t.X, held)
		body := copyHeld(held)
		w.walk(t.Body.List, body)
	case *ast.SwitchStmt:
		w.stmt(t.Init, held)
		w.check(t.Tag, held)
		w.caseBodies(t.Body, held)
	case *ast.TypeSwitchStmt:
		w.stmt(t.Init, held)
		w.caseBodies(t.Body, held)
	case *ast.SelectStmt:
		for _, c := range t.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				body := copyHeld(held)
				w.stmt(cc.Comm, body)
				w.walk(cc.Body, body)
			}
		}
	case *ast.AssignStmt:
		for _, e := range t.Rhs {
			w.check(e, held)
		}
		for _, e := range t.Lhs {
			w.check(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := t.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.check(v, held)
					}
				}
			}
		}
	case *ast.SendStmt:
		w.check(t.Chan, held)
		w.check(t.Value, held)
	case *ast.IncDecStmt:
		w.check(t.X, held)
	}
	return false
}

// ifStmt walks both arms on copies and merges: a lock survives the if
// only when both fallthrough arms leave it held, so "unlock before
// Call in the early-exit arm" clears the state exactly as written.
func (w *lockWalker) ifStmt(t *ast.IfStmt, held map[string]heldLock) bool {
	if t.Init != nil {
		w.stmt(t.Init, held)
	}
	w.check(t.Cond, held)
	thenHeld := copyHeld(held)
	thenTerm := w.walk(t.Body.List, thenHeld)
	elseHeld := copyHeld(held)
	elseTerm := false
	if t.Else != nil {
		elseTerm = w.stmt(t.Else, elseHeld)
	}
	switch {
	case thenTerm && elseTerm:
		return true
	case thenTerm:
		replaceHeld(held, elseHeld)
	case elseTerm:
		replaceHeld(held, thenHeld)
	default:
		replaceHeld(held, intersectHeld(thenHeld, elseHeld))
	}
	return false
}

func (w *lockWalker) caseBodies(body *ast.BlockStmt, held map[string]heldLock) {
	for _, c := range body.List {
		if cc, ok := c.(*ast.CaseClause); ok {
			for _, e := range cc.List {
				w.check(e, held)
			}
			caseHeld := copyHeld(held)
			w.walk(cc.Body, caseHeld)
		}
	}
}

func copyHeld(held map[string]heldLock) map[string]heldLock {
	out := make(map[string]heldLock, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func replaceHeld(dst, src map[string]heldLock) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

func intersectHeld(a, b map[string]heldLock) map[string]heldLock {
	out := map[string]heldLock{}
	for k, v := range a {
		if _, ok := b[k]; ok {
			out[k] = v
		}
	}
	return out
}

// check scans one expression tree for calls that may block while held
// is non-empty. Nested function literals are separate frames.
func (w *lockWalker) check(e ast.Expr, held map[string]heldLock) {
	if e == nil || len(held) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, _, _, isLock := lockOp(w.pass.TypesInfo, call); isLock {
			return true
		}
		if method, ok := transportSendCall(w.pass.TypesInfo, call); ok {
			w.flag(call, held, "transport."+method+" performs (simulated) network I/O", nil)
			return true
		}
		if what, ok := blockingExternal(w.pass.TypesInfo, call); ok {
			w.flag(call, held, what, nil)
			return true
		}
		if fn, ok := staticCallee(w.pass.TypesInfo, call); ok {
			id := FuncID(fn)
			if moduleOrTestdata(id) {
				if chain := w.facts.BlockChain(id); chain != nil {
					w.flag(call, held, "call to "+shortFuncID(id)+" may block", chain)
				}
			}
			return true
		}
		if key, ok := dynamicCalleeKey(w.pass.TypesInfo, call); ok {
			for _, impl := range w.facts.Impls[key] {
				if chain := w.facts.BlockChain(impl); chain != nil {
					w.flag(call, held, "dynamic call (via "+key+") may block in "+shortFuncID(impl), chain)
					break
				}
			}
		}
		return true
	})
}

func (w *lockWalker) flag(call *ast.CallExpr, held map[string]heldLock, what string, chain []string) {
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var locks []string
	for _, k := range keys {
		h := held[k]
		locks = append(locks, k+" ("+h.method+" at "+w.pass.Fset.Position(h.at).String()+")")
	}
	msg := what + " while holding " + strings.Join(locks, ", ") + "; release the lock before blocking"
	if len(chain) > 0 {
		msg += ": " + strings.Join(chain, "; ")
	}
	w.pass.Reportf(call.Pos(), "%s", msg)
}

// lockOp matches mu.Lock/RLock/Unlock/RUnlock where mu is a
// sync.Mutex/RWMutex (including ones embedded in a struct), returning
// the receiver expression as the lock's identity key.
func lockOp(info *types.Info, e ast.Expr) (key, method string, call *ast.CallExpr, ok bool) {
	c, isCall := e.(*ast.CallExpr)
	if !isCall {
		return "", "", nil, false
	}
	sel, isSel := c.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", nil, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", nil, false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", nil, false
	}
	return types.ExprString(sel.X), sel.Sel.Name, c, true
}

func isPanicStmt(st *ast.ExprStmt) bool {
	call, ok := st.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}
