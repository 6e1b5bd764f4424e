// Package analysis implements peertrack-lint: the static analysis
// passes for the properties the simulation and chaos harnesses stake
// correctness on that no test observes — no wall-clock or ambient
// randomness in the experiment tables no golden pins, no
// map-iteration-order leaking into emitted output, no blocking under a
// store mutex. What a test can observe is left to tests (DESIGN §8
// lists which test holds each contract a pass used to).
//
// The package deliberately mirrors the golang.org/x/tools/go/analysis
// API (Analyzer, Pass, Diagnostic) so the passes could be ported to the
// upstream framework verbatim, but it is self-contained: the container
// this repo builds in has no module proxy access, so the driver
// (loading, suppression) is implemented here on the standard library
// alone — go/ast, go/types, go/importer, and `go list -json -export`
// for export data.
//
// The syntax passes (detwall, detrand, maporder) see one function at a
// time; lockheld also follows calls through the per-function facts of
// facts.go. Each pass documents its rule at its Analyzer variable.
//
// A diagnostic is suppressed by a `//lint:allow <pass> <reason>`
// comment on the flagged line or the line above it.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one static analysis pass.
type Analyzer struct {
	// Name identifies the pass in diagnostics and in //lint:allow
	// comments.
	Name string
	// Doc is a one-paragraph description of what the pass enforces.
	Doc string
	// Run executes the pass against one package, reporting findings
	// through pass.Report.
	Run func(*Pass) error
	// AppliesTo, when non-nil, restricts the pass to packages whose
	// (normalized) import path it accepts. The driver consults it;
	// analysistest runs every pass unconditionally so testdata packages
	// do not need real import paths.
	AppliesTo func(importPath string) bool
}

// A Pass holds the inputs to one run of one analyzer on one package and
// collects its diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// ImportPath is the package's import path as loaded (test variants
	// keep their qualifier; NormalizeImportPath strips it).
	ImportPath string
	// Facts is the interprocedural fact store, filled for every module
	// package before any pass runs. lockheld treats a nil store as
	// empty.
	Facts *FactStore
	// Report is called for each finding.
	Report func(Diagnostic)
}

// facts returns the pass's fact store, never nil.
func (p *Pass) facts() *FactStore {
	if p.Facts == nil {
		return NewFactStore(p.Fset)
	}
	return p.Facts
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// DeterministicPackages lists the packages whose behavior must be a
// pure function of the seed but whose output no test pins — the
// ablation and extension tables have no golden — so detwall and detrand
// apply only here. The other packages under the sim kernel are held by
// their goldens and determinism tests instead. Keep this in sync with
// DESIGN.md §8.
var DeterministicPackages = map[string]bool{
	"peertrack/internal/experiments": true,
}

// NormalizeImportPath maps a test-variant import path to the package it
// tests: "p [p.test]" and the external test package "p_test" both
// normalize to "p", so the deterministic-package allowlist covers test
// files too.
func NormalizeImportPath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	path = strings.TrimSuffix(path, ".test")
	path = strings.TrimSuffix(path, "_test")
	return path
}

// deterministicOnly is the AppliesTo predicate shared by detwall and
// detrand.
func deterministicOnly(importPath string) bool {
	return DeterministicPackages[NormalizeImportPath(importPath)]
}

// All returns the full pass suite in stable order: the syntax passes,
// then lockheld.
func All() []*Analyzer {
	return []*Analyzer{DetWall, DetRand, MapOrder, LockHeld}
}

// pkgNameOf resolves an identifier to the package it names, or nil if
// it is not (or no longer — e.g. shadowed by a local) a package name.
func pkgNameOf(info *types.Info, id *ast.Ident) *types.Package {
	if obj, ok := info.Uses[id].(*types.PkgName); ok {
		return obj.Imported()
	}
	return nil
}

// selectorCall matches expr against pkgPath.name (e.g. "time".Now),
// resolving through the type information so renamed imports are caught
// and shadowing locals are not.
func selectorCall(info *types.Info, expr ast.Expr, pkgPath string) (name string, ok bool) {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pkg := pkgNameOf(info, id)
	if pkg == nil || pkg.Path() != pkgPath {
		return "", false
	}
	return sel.Sel.Name, true
}
