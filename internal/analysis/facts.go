package analysis

import (
	"go/token"
	"strings"
)

// This file holds the interprocedural layer: per-function facts
// computed bottom-up over the CHA call graph (see summary.go for the
// extraction) and the transitive queries lockheld, sendalias and
// sortedsource ask of them. The store is filled for every package of
// the load, on one file set, before any pass runs.

// A Site is one position-annotated effect inside a function body: a
// potentially-blocking operation.
type Site struct {
	Pos  token.Pos
	What string // human-readable effect, e.g. "time.Sleep waits on the wall clock"
}

// A CallEdge is one call-graph edge out of a function. Static edges
// name the callee function ID directly; dynamic edges carry an
// interface-method key ("iface:<pkg>.<Iface>.<Method>") resolved
// against the CHA implementation index at query time.
type CallEdge struct {
	Pos     token.Pos
	Callee  string
	Dynamic bool
	// ParamArgs maps callee parameter index -> caller parameter index
	// for arguments that are bare identifiers of the caller's own
	// parameters. It is what lets SendsParams taint flow through
	// forwarding helpers.
	ParamArgs map[int]int
}

// Return-value alias lattice. Each return site of a function is
// summarized as one of these strings (the "escape/alias lattice" of
// DESIGN.md §8): what the returned reference value may alias.
const (
	RetFresh   = "fresh"   // freshly allocated in this function
	RetRecv    = "recv"    // aliases the receiver or its fields
	RetParam   = "param"   // aliases a parameter
	RetGlobal  = "global"  // aliases package-level state
	RetUnknown = "unknown" // anything else
	// "call:<id>" defers to the named function's own return summary.
	retCallPrefix = "call:"
)

// FuncFact is the bottom-up summary of one function.
type FuncFact struct {
	ID     string
	Blocks []Site // local potentially-blocking sites (post //lint:allow)
	Calls  []CallEdge
	// Returns holds one lattice value per reference-typed return site.
	Returns []string
	// MapReturn marks a function returning a slice built by ranging a
	// map without a sort before the return — a tainted source for
	// sortedsource.
	MapReturn bool
	// SendsParams lists parameter indices whose referents flow into a
	// wire message sent by this function (directly; transitive flow is
	// resolved through CallEdge.ParamArgs at query time).
	SendsParams []int
}

// FactStore holds every known function fact plus the CHA
// implementation index. Not safe for concurrent mutation; the driver
// fills it fully before passes query it.
type FactStore struct {
	fset  *token.FileSet // renders Site and CallEdge positions in chains
	Funcs map[string]*FuncFact
	// Impls maps "iface:<pkg>.<Iface>.<Method>" to the sorted IDs of
	// module-internal concrete methods implementing it.
	Impls map[string][]string

	blockMemo map[string][]string // nil entry = proven non-blocking
	freshMemo map[string]int8     // 0 unknown/in-progress, 1 fresh, -1 not
	taintMemo map[string]int8
	sendsMemo map[string]map[int]bool
}

// NewFactStore returns an empty store for packages parsed into fset.
func NewFactStore(fset *token.FileSet) *FactStore {
	return &FactStore{fset: fset, Funcs: map[string]*FuncFact{}, Impls: map[string][]string{}}
}

func (s *FactStore) resetMemos() {
	s.blockMemo, s.freshMemo, s.taintMemo, s.sendsMemo = nil, nil, nil, nil
}

func dedupStrings(in []string) []string {
	out := in[:0]
	for i, v := range in {
		if i > 0 && v == in[i-1] {
			continue
		}
		out = append(out, v)
	}
	return out
}

// ModuleFunc reports whether id names a function of this module (one
// whose body we can summarize), as opposed to stdlib or vendored code.
func ModuleFunc(id string) bool {
	return strings.HasPrefix(id, ModulePath+"/") || strings.HasPrefix(id, ModulePath+".")
}

// ModulePath is the import-path prefix of this module. Testdata
// corpora use single-segment paths, which ModuleFunc treats as
// module-internal too (no dot before the first slash).
const ModulePath = "peertrack"

// testdataPackages holds the root segments of packages the analysistest
// loader compiled from a testdata corpus. A bare path like "transport"
// is only module-internal when the test loader says so — otherwise
// single-segment paths are stdlib ("sort", "io") and stay external.
var testdataPackages = map[string]bool{}

// RegisterTestdataPackage marks an import path as a testdata-local
// package for the interprocedural queries. Called by the analysistest
// loader; not used by the production drivers.
func RegisterTestdataPackage(path string) {
	seg := path
	if i := strings.IndexAny(seg, "/."); i >= 0 {
		seg = seg[:i]
	}
	testdataPackages[seg] = true
}

// moduleOrTestdata is ModuleFunc extended to the analysistest corpus
// convention.
func moduleOrTestdata(id string) bool {
	if ModuleFunc(id) {
		return true
	}
	seg := id
	if i := strings.IndexAny(seg, "/."); i >= 0 {
		seg = seg[:i]
	}
	return testdataPackages[seg]
}

// callees resolves one edge to the function IDs it may reach: the
// static callee, or every registered implementation of a dynamic key.
func (s *FactStore) callees(e CallEdge) []string {
	if !e.Dynamic {
		return []string{e.Callee}
	}
	return s.Impls[e.Callee]
}

// BlockChain reports why id (or anything it transitively calls within
// the module) may block, as a human-readable call chain ending at the
// offending site — or nil if it provably does not under the summary.
// Cycles are treated as clean while grey (a recursive function's sites
// are still found at its own body).
func (s *FactStore) BlockChain(id string) []string {
	if s.blockMemo == nil {
		s.blockMemo = map[string][]string{}
	}
	return s.blockChain(id, map[string]bool{})
}

func (s *FactStore) blockChain(id string, grey map[string]bool) []string {
	if chain, ok := s.blockMemo[id]; ok {
		return chain
	}
	if grey[id] {
		return nil
	}
	f := s.Funcs[id]
	if f == nil {
		return nil // external or unsummarized: effects were tabled at the call site
	}
	grey[id] = true
	defer delete(grey, id)
	var chain []string
	if len(f.Blocks) > 0 {
		site := f.Blocks[0]
		chain = []string{shortFuncID(id) + ": " + site.What + " at " + s.fset.Position(site.Pos).String()}
	} else {
	edges:
		for _, e := range f.Calls {
			for _, callee := range s.callees(e) {
				if !moduleOrTestdata(callee) {
					continue
				}
				if sub := s.blockChain(callee, grey); sub != nil {
					chain = append([]string{shortFuncID(id) + " calls " + shortFuncID(callee) + " at " + s.fset.Position(e.Pos).String()}, sub...)
					break edges
				}
			}
		}
	}
	s.blockMemo[id] = chain
	return chain
}

// ReturnsFresh reports whether every return site of id yields freshly
// allocated data — the clone-helper certificate sendalias accepts.
// Functions with no recorded return summary are not fresh.
func (s *FactStore) ReturnsFresh(id string) bool {
	if s.freshMemo == nil {
		s.freshMemo = map[string]int8{}
	}
	return s.returnsFresh(id, map[string]bool{})
}

func (s *FactStore) returnsFresh(id string, grey map[string]bool) bool {
	if v := s.freshMemo[id]; v != 0 {
		return v > 0
	}
	if grey[id] {
		return false
	}
	f := s.Funcs[id]
	if f == nil || len(f.Returns) == 0 {
		return false
	}
	grey[id] = true
	defer delete(grey, id)
	ok := true
	for _, r := range f.Returns {
		switch {
		case r == RetFresh:
		case strings.HasPrefix(r, retCallPrefix):
			if !s.returnsFresh(strings.TrimPrefix(r, retCallPrefix), grey) {
				ok = false
			}
		default:
			ok = false
		}
		if !ok {
			break
		}
	}
	if ok {
		s.freshMemo[id] = 1
	} else {
		s.freshMemo[id] = -1
	}
	return ok
}

// ReturnsAliasOfOwner reports whether some return site of id may alias
// the callee's receiver or package-level state — the certificate that
// makes `msg.F = p.snapshot()` as dangerous as `msg.F = p.buf`.
func (s *FactStore) ReturnsAliasOfOwner(id string) bool {
	f := s.Funcs[id]
	if f == nil {
		return false
	}
	for _, r := range f.Returns {
		if r == RetRecv || r == RetGlobal {
			return true
		}
		if strings.HasPrefix(r, retCallPrefix) && s.ReturnsAliasOfOwner(strings.TrimPrefix(r, retCallPrefix)) {
			return true
		}
	}
	return false
}

// Tainted reports whether id returns map-derived data in nondeterministic
// order, directly or by forwarding another tainted function's result.
func (s *FactStore) Tainted(id string) bool {
	if s.taintMemo == nil {
		s.taintMemo = map[string]int8{}
	}
	return s.tainted(id, map[string]bool{})
}

func (s *FactStore) tainted(id string, grey map[string]bool) bool {
	if v := s.taintMemo[id]; v != 0 {
		return v > 0
	}
	if grey[id] {
		return false
	}
	f := s.Funcs[id]
	if f == nil {
		return false
	}
	grey[id] = true
	defer delete(grey, id)
	t := f.MapReturn
	if !t {
		for _, r := range f.Returns {
			if strings.HasPrefix(r, retCallPrefix) && s.tainted(strings.TrimPrefix(r, retCallPrefix), grey) {
				t = true
				break
			}
		}
	}
	if t {
		s.taintMemo[id] = 1
	} else {
		s.taintMemo[id] = -1
	}
	return t
}

// SendsParam reports whether the value passed as parameter index i of
// id may end up aliased inside a wire message the callee (or a callee
// of the callee) sends.
func (s *FactStore) SendsParam(id string, i int) bool {
	if s.sendsMemo == nil {
		s.sendsMemo = map[string]map[int]bool{}
	}
	m := s.sendsParams(id, map[string]bool{})
	return m[i]
}

func (s *FactStore) sendsParams(id string, grey map[string]bool) map[int]bool {
	if m, ok := s.sendsMemo[id]; ok {
		return m
	}
	if grey[id] {
		return nil
	}
	f := s.Funcs[id]
	if f == nil {
		return nil
	}
	grey[id] = true
	defer delete(grey, id)
	out := map[int]bool{}
	for _, i := range f.SendsParams {
		out[i] = true
	}
	for _, e := range f.Calls {
		if len(e.ParamArgs) == 0 {
			continue
		}
		for _, callee := range s.callees(e) {
			sub := s.sendsParams(callee, grey)
			for calleeIdx, callerIdx := range e.ParamArgs {
				if sub[calleeIdx] {
					out[callerIdx] = true
				}
			}
		}
	}
	s.sendsMemo[id] = out
	return out
}

// shortFuncID trims the module prefix for readable diagnostics:
// "peertrack/internal/core.(*bucket).upsert" -> "core.(*bucket).upsert".
func shortFuncID(id string) string {
	if i := strings.LastIndex(id, "/"); i >= 0 {
		return id[i+1:]
	}
	return id
}
