package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SendAlias flags every reference the sender still holds into a wire
// message once transport Call/Send has it: a slice, map or pointer
// reachable from the message that aliases retained state, and any write
// through the message after the send.
//
// The in-memory transport shares pointers, so the handler on the far
// side (and the chaos harness's oracle) sees the very object the caller
// passed. A message field aliasing the sender's own state (a receiver
// field, package-level state, or the view returned by a helper that
// returns receiver state) hands the peer live memory — the gossip
// "fresh slices per wire message" rule — and a write after the send
// mutates state the peer already owns, a heisenbug the race detector
// cannot always see because the "remote" handler may have returned
// already. The pass checks, at every send site, each reference-typed
// message field against the escape/alias lattice:
//
//   - fresh values (composite literals, make, append-to-nil, clone
//     helpers proven fresh by their facts) are fine;
//   - receiver- or global-aliasing values are flagged;
//   - values built by module helpers are resolved through the helpers'
//     return-alias facts, so `Entries: a.wireEntriesLocked()` is clean
//     exactly when the helper provably returns a fresh slice;
//   - parameter-aliasing values become a SendsParams fact instead, and
//     the *callers* passing retained state into such a function are
//     flagged at the call site, transitively through forwarding
//     helpers;
//
// and, in source order within one function body, every write after the
// send through a local that was sent by pointer, by address, or as a
// fresh message field: a field, element or whole-value assignment, an
// increment, or a re-append that may grow into the shared backing
// array. Re-pointing the local at a fresh value frees the name.
var SendAlias = &Analyzer{
	Name: "sendalias",
	Doc:  "flag wire messages that alias state the sender retains, or that the sender writes through, after Call/Send",
	Run:  runSendAlias,
}

func runSendAlias(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				newFrame(pass, fd).walkBody(fd.Body)
			}
		}
		// Function literals are separate frames: no receiver/parameter
		// identity, but sends inside them are still checked.
		ast.Inspect(f, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				newFrame(pass, nil).walkBody(fl.Body)
			}
			return true
		})
	}
	return nil
}

// frame evaluates the alias lattice for one function body.
type frame struct {
	pass  *Pass
	facts *FactStore
	aliasEnv
	// lits holds, for a local last assigned a composite literal, the
	// literal node, so a message built in a variable has its fields
	// inspected at the send.
	lits map[types.Object]*ast.CompositeLit
	sent []sentRef
}

// sentRef is one local through which the sender can still reach memory
// a send handed to the transport.
type sentRef struct {
	obj    types.Object
	method string    // Call or Send
	end    token.Pos // end of the sending call; writes after this are flagged
	// byAddr marks a value variable sent as &v: assigning the whole
	// variable overwrites the shared pointee. Otherwise the local is
	// itself a reference and assigning it re-points the name.
	byAddr bool
}

func newFrame(pass *Pass, fd *ast.FuncDecl) *frame {
	return &frame{
		pass:     pass,
		facts:    pass.facts(),
		aliasEnv: newAliasEnv(pass.TypesInfo, fd),
		lits:     map[types.Object]*ast.CompositeLit{},
	}
}

// walkBody visits the body in document order: assignments update the
// local lattice, sends and fact-bearing calls are checked as reached,
// and the writes that follow a send are checked last. Nested function
// literals are their own frames: a send in a closure does not freeze the
// outer frame's view (and vice versa) under this source-order model.
func (fr *frame) walkBody(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			fr.track(t)
			for i, lhs := range t.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					var lit *ast.CompositeLit
					if len(t.Lhs) == len(t.Rhs) {
						lit = fr.litOf(t.Rhs[i])
					}
					fr.lits[fr.info.ObjectOf(id)] = lit
				}
			}
		case *ast.CallExpr:
			if method, ok := transportSendCall(fr.info, t); ok {
				fr.checkSend(t, method)
			} else {
				fr.checkCallArgs(t)
			}
		}
		return true
	})
	if len(fr.sent) > 0 {
		fr.checkWritesAfter(body)
	}
}

// litOf returns the composite literal e denotes — directly, behind & or
// *, or through a local that holds one — or nil.
func (fr *frame) litOf(e ast.Expr) *ast.CompositeLit {
	switch t := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return t
	case *ast.UnaryExpr:
		if t.Op == token.AND {
			return fr.litOf(t.X)
		}
	case *ast.StarExpr:
		return fr.litOf(t.X)
	case *ast.Ident:
		return fr.lits[fr.info.ObjectOf(t)]
	}
	return nil
}

// checkSend inspects every reference-typed or message-shaped argument
// of a transport Call/Send.
func (fr *frame) checkSend(call *ast.CallExpr, method string) {
	for _, arg := range call.Args {
		t := fr.info.TypeOf(arg)
		if t == nil {
			continue
		}
		sent := sentRef{method: method, end: call.End()}
		// The variable whose pointee crosses the transport: a
		// pointer-typed identifier, or &ident of a value.
		switch a := arg.(type) {
		case *ast.Ident:
			if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
				sent.obj = fr.info.ObjectOf(a)
			}
		case *ast.UnaryExpr:
			if id, ok := a.X.(*ast.Ident); ok && a.Op == token.AND {
				sent.obj, sent.byAddr = fr.info.ObjectOf(id), true
			}
		}
		if sent.obj != nil {
			fr.sent = append(fr.sent, sent)
		}
		if refType(t) {
			fr.checkValue(arg, sent, "message")
		}
		// Inspect the fields of the message literal (direct, through &,
		// or through a local whose last value was a literal).
		lit := fr.litOf(arg)
		if lit == nil {
			continue
		}
		for _, el := range lit.Elts {
			fieldExpr, label := el, "message field"
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				fieldExpr = kv.Value
				if id, ok := kv.Key.(*ast.Ident); ok {
					label += " " + id.Name
				}
			}
			if ft := fr.info.TypeOf(fieldExpr); ft != nil && refType(ft) {
				fr.checkValue(fieldExpr, sent, label)
			}
		}
	}
}

// checkValue applies the lattice verdict for one value crossing the
// wire at the send described by sent.
func (fr *frame) checkValue(e ast.Expr, sent sentRef, label string) {
	switch val := fr.valueOf(e); val.kind {
	case RetRecv:
		fr.pass.Reportf(e.Pos(),
			"%s aliases the sender's own state; the receiving peer sees live memory (the in-memory transport shares pointers) — send a fresh copy", label)
	case RetGlobal:
		fr.pass.Reportf(e.Pos(),
			"%s aliases package-level state retained by the sender — send a fresh copy", label)
	case "call":
		id := val.callee
		if fr.facts.ReturnsFresh(id) {
			return // proven clone helper
		}
		if fr.facts.ReturnsAliasOfOwner(id) {
			fr.pass.Reportf(e.Pos(),
				"%s is built by %s, which may return a view of its owner's state — clone before sending", label, shortFuncID(id))
		}
	case RetFresh:
		// Fresh at send time, but still retained through a local: a
		// write through it after the send mutates the peer's copy.
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			sent.obj, sent.byAddr = fr.info.ObjectOf(id), false
			fr.sent = append(fr.sent, sent)
		}
	}
}

// checkWritesAfter flags writes through a sent local that follow its
// send: m.Field = v, m.Slice[i] = v, *m = v, m.N++, a whole-value
// assignment to a variable sent by address, and buf = append(buf, …),
// which may write into the shared backing array when capacity allows.
// Any other whole assignment re-points the name at a different object,
// so the record is retired and later writes are fine.
func (fr *frame) checkWritesAfter(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.IncDecStmt:
			fr.reportWrite(rootIdent(s.X), s.X.Pos())
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				id, whole := lhs.(*ast.Ident)
				if !whole {
					fr.reportWrite(rootIdent(lhs), lhs.Pos())
					continue
				}
				obj := fr.info.ObjectOf(id)
				appended := false
				if i < len(s.Rhs) {
					c, ok := s.Rhs[i].(*ast.CallExpr)
					appended = ok && isBuiltinCall(fr.info, c, "append")
				}
				kept := fr.sent[:0]
				for _, sr := range fr.sent {
					if sr.obj != obj || s.Pos() <= sr.end || sr.byAddr || appended {
						kept = append(kept, sr)
					}
				}
				fr.sent = kept
				fr.reportWrite(id, s.Pos())
			}
		}
		return true
	})
}

// reportWrite emits the diagnostic if id names a sent local and the
// write at position at follows the send.
func (fr *frame) reportWrite(id *ast.Ident, at token.Pos) {
	if id == nil {
		return
	}
	obj := fr.info.ObjectOf(id)
	for _, sr := range fr.sent {
		if sr.obj == obj && at > sr.end {
			fr.pass.Reportf(at,
				"%s was passed to transport %s and may now be owned by the receiving peer (the in-memory transport shares pointers); writing through it here corrupts the message — build a new value instead",
				id.Name, sr.method)
			return
		}
	}
}

// rootIdent walks selector/index/star chains to the base identifier of
// an lvalue, returning nil for plain identifiers (whole-variable
// assignment is a re-point, not a write-through).
func rootIdent(lhs ast.Expr) *ast.Ident {
	wrapped := false
	for {
		switch e := lhs.(type) {
		case *ast.SelectorExpr:
			lhs, wrapped = e.X, true
		case *ast.StarExpr:
			lhs, wrapped = e.X, true
		case *ast.IndexExpr:
			lhs, wrapped = e.X, true
		case *ast.ParenExpr:
			lhs = e.X
		case *ast.Ident:
			if !wrapped {
				return nil
			}
			return e
		default:
			return nil
		}
	}
}

// checkCallArgs flags retained state passed into a function whose
// SendsParams facts say the argument ends up inside a wire message —
// the interprocedural half of the rule.
func (fr *frame) checkCallArgs(call *ast.CallExpr) {
	fn, ok := staticCallee(fr.info, call)
	if !ok {
		return
	}
	id := FuncID(fn)
	if !moduleOrTestdata(id) {
		return
	}
	for i, arg := range call.Args {
		if !fr.facts.SendsParam(id, i) {
			continue
		}
		t := fr.info.TypeOf(arg)
		if t == nil || !refType(t) {
			continue
		}
		switch val := fr.valueOf(arg); val.kind {
		case RetRecv, RetGlobal:
			fr.pass.Reportf(arg.Pos(),
				"argument aliases the caller's retained state and %s sends it over the transport — pass a fresh copy", shortFuncID(id))
		case "call":
			if !fr.facts.ReturnsFresh(val.callee) && fr.facts.ReturnsAliasOfOwner(val.callee) {
				fr.pass.Reportf(arg.Pos(),
					"argument is a view returned by %s and %s sends it over the transport — clone it first", shortFuncID(val.callee), shortFuncID(id))
			}
		}
	}
}
