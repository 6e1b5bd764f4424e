package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotAlloc enforces the 0-allocs/op contract statically: a function
// annotated //lint:hotpath, and every module function reachable from it
// on the steady-state path, must be allocation-free.
//
// The pass is the static twin of the alloc-pinning benchmarks: where
// testing.AllocsPerRun observes one execution, hotalloc walks the call
// graph facts (summary.go) and reports every composite literal, growing
// append, string concatenation/conversion, interface boxing, fmt call,
// and capturing closure reachable from the annotation. Allocations in
// cold branches (miss-shaped guards, post-early-return tails) are the
// amortized-growth idiom the compact stores rely on and are exempt; so
// is anything suppressed at its site with //lint:allow hotalloc.
//
// Diagnostics always land in the annotated function's package: local
// sites at their position, transitive ones at the call edge that leaves
// the function, with the full chain in the message.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "flag allocations reachable on the steady-state path of //lint:hotpath functions",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) error {
	facts := pass.facts()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasHotpathMarker(fd) {
				continue
			}
			checkHotFunc(pass, facts, fd)
		}
	}
	return nil
}

func checkHotFunc(pass *Pass, facts *FactStore, fd *ast.FuncDecl) {
	fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	fact := facts.Funcs[FuncID(fn)]
	if fact == nil {
		return // no facts computed for this run
	}
	name := shortFuncID(fact.ID)
	for _, site := range fact.Allocs {
		pass.Report(Diagnostic{
			Pos:     site.Pos,
			Message: "hot path " + name + ": " + site.What,
		})
	}
	for _, e := range fact.Calls {
		if e.Cold {
			continue
		}
		for _, callee := range facts.callees(e) {
			if !moduleOrTestdata(callee) {
				continue
			}
			if cf := facts.Funcs[callee]; cf != nil && cf.Hotpath {
				continue // annotated callees police themselves
			}
			chain := facts.AllocChain(callee)
			if chain == nil {
				continue
			}
			pass.Report(Diagnostic{
				Pos: e.Pos,
				Message: "hot path " + name + ": call to " + shortFuncID(callee) +
					" may allocate: " + strings.Join(chain, "; "),
			})
			break // one chain per edge is enough signal
		}
	}
}
