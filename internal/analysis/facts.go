package analysis

import (
	"go/token"
	"strings"
)

// This file holds the interprocedural layer lockheld reads: per-function
// blocking sites and call edges (see summary.go for the extraction),
// the CHA implementation index, and the transitive BlockChain query over
// them. The store is filled for every package of the load, on one file
// set, before any pass runs.

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
}

// FuncFact is the bottom-up summary of one function.
type FuncFact struct {
	ID     string
	Blocks []Site // local potentially-blocking sites (post //lint:allow)
	Calls  []CallEdge
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
}

// NewFactStore returns an empty store for packages parsed into fset.
func NewFactStore(fset *token.FileSet) *FactStore {
	return &FactStore{fset: fset, Funcs: map[string]*FuncFact{}, Impls: map[string][]string{}}
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

// shortFuncID trims the module prefix for readable diagnostics:
// "peertrack/internal/core.(*bucket).upsert" -> "core.(*bucket).upsert".
func shortFuncID(id string) string {
	if i := strings.LastIndex(id, "/"); i >= 0 {
		return id[i+1:]
	}
	return id
}
