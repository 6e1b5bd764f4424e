// Package analysistest runs an analysis pass over testdata packages
// and checks its diagnostics against // want comments, mirroring
// golang.org/x/tools/go/analysis/analysistest on the standard library
// only.
//
// Layout: testdata/src/<pkg>/*.go, one package per directory. A
// directory may import another testdata package by its directory name
// (e.g. the lockheld corpus imports a stub "transport"); anything else
// resolves to the real build via `go list -export` data.
//
// Expectations are written at the end of the offending line:
//
//	x := time.Now() // want "wall clock"
//
// The quoted string is a regexp matched against the diagnostic message;
// several strings may follow one want. Lines without a want comment
// must produce no diagnostic — including lines whose finding is
// suppressed by //lint:allow, which is how the escape hatch is tested.
package analysistest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"peertrack/internal/analysis"
)

// TestData returns the canonical testdata root relative to the caller's
// working directory (the package under test).
func TestData() string {
	cwd, err := os.Getwd()
	if err != nil {
		panic(err)
	}
	return filepath.Join(cwd, "testdata")
}

// Run loads each named testdata package, applies the analyzer (package
// filters ignored, //lint:allow honored), and reports mismatches
// against the want comments through t.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	for _, pkg := range pkgs {
		ld, lp, facts := loadWithFacts(t, testdata, pkg)
		findings, err := analysis.RunPackage(ld.fset, lp, []*analysis.Analyzer{a}, analysis.RunOptions{Facts: facts})
		if err != nil {
			t.Fatalf("running on %s: %v", pkg, err)
		}
		checkWants(t, pkg, collectWants(t, ld.fset, lp.Files), findings)
	}
}

// Analyze loads pkg and returns the raw findings of the full suite with
// allow hygiene enabled — for tests asserting on findings
// programmatically, where want comments cannot express the expectation
// (a want on a bare //lint:allow line would become its "reason").
func Analyze(t *testing.T, testdata, pkg string) []analysis.Finding {
	t.Helper()
	ld, lp, facts := loadWithFacts(t, testdata, pkg)
	findings, err := analysis.RunPackage(ld.fset, lp, analysis.All(), analysis.RunOptions{
		Facts:       facts,
		CheckAllows: true,
	})
	if err != nil {
		t.Fatalf("running suite on %s: %v", pkg, err)
	}
	return findings
}

// LoadFacts loads pkg and returns the computed fact store — for tests
// asserting on the call-graph and chain machinery directly.
func LoadFacts(t *testing.T, testdata, pkg string) *analysis.FactStore {
	t.Helper()
	_, _, facts := loadWithFacts(t, testdata, pkg)
	return facts
}

// loadWithFacts loads pkg and computes the interprocedural facts of it
// and of every testdata package it imports, dependencies first, so the
// passes see the same call-graph summaries the real driver builds.
func loadWithFacts(t *testing.T, testdata, pkg string) (*loader, *analysis.LoadedPackage, *analysis.FactStore) {
	t.Helper()
	ld := newLoader(filepath.Join(testdata, "src"))
	lp, err := ld.load(pkg)
	if err != nil {
		t.Fatalf("loading testdata package %s: %v", pkg, err)
	}
	facts := analysis.NewFactStore(ld.fset)
	for _, dep := range ld.order {
		analysis.ComputeFacts(ld.fset, ld.local[dep], facts)
	}
	return ld, lp, facts
}

func checkWants(t *testing.T, pkg string, wants []*want, findings []analysis.Finding) {
	t.Helper()
	matched := map[*want]bool{}
	for _, f := range findings {
		w := findWant(wants, f.Pos.Filename, f.Pos.Line, f.Message)
		if w == nil {
			t.Errorf("%s: unexpected diagnostic: %s", pkg, f)
			continue
		}
		matched[w] = true
	}
	for _, w := range wants {
		if !matched[w] {
			t.Errorf("%s: %s:%d: expected diagnostic matching %q, got none",
				pkg, filepath.Base(w.file), w.line, w.re.String())
		}
	}
}

// A want is one expected diagnostic.
type want struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)`)

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*want {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range splitQuoted(m[1]) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// splitQuoted extracts the leading sequence of Go-quoted strings
// (double- or back-quoted; backquotes spare the pattern from escaping
// literal quotes).
func splitQuoted(s string) []string {
	var out []string
	s = strings.TrimSpace(s)
	for len(s) > 0 && (s[0] == '"' || s[0] == '`') {
		quote := s[0]
		end := 1
		for end < len(s) {
			if quote == '"' && s[end] == '\\' {
				end += 2
				continue
			}
			if s[end] == quote {
				break
			}
			end++
		}
		if end >= len(s) {
			break
		}
		out = append(out, s[:end+1])
		s = strings.TrimSpace(s[end+1:])
	}
	return out
}

func findWant(wants []*want, file string, line int, msg string) *want {
	for _, w := range wants {
		if w.file == file && w.line == line && w.re.MatchString(msg) {
			return w
		}
	}
	return nil
}

// loader resolves testdata packages from source and everything else
// from build-cache export data fetched on demand via go list.
type loader struct {
	fset    *token.FileSet
	srcRoot string
	local   map[string]*analysis.LoadedPackage
	order   []string // load-completion order: dependencies first
	std     types.ImporterFrom
}

func newLoader(srcRoot string) *loader {
	ld := &loader{
		fset:    token.NewFileSet(),
		srcRoot: srcRoot,
		local:   map[string]*analysis.LoadedPackage{},
	}
	ld.std = importer.ForCompiler(ld.fset, "gc", stdExportLookup).(types.ImporterFrom)
	// Every testdata directory counts as a module-local package for the
	// interprocedural machinery, so cross-corpus calls build call-graph
	// edges instead of being tabled as external effects.
	if entries, err := os.ReadDir(srcRoot); err == nil {
		for _, e := range entries {
			if e.IsDir() {
				analysis.RegisterTestdataPackage(e.Name())
			}
		}
	}
	return ld
}

func (ld *loader) load(path string) (*analysis.LoadedPackage, error) {
	if lp, ok := ld.local[path]; ok {
		return lp, nil
	}
	dir := filepath.Join(ld.srcRoot, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, info, err := analysis.TypeCheck(ld.fset, path, files, (*loaderImporter)(ld))
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	lp := &analysis.LoadedPackage{ImportPath: path, Dir: dir, Files: files, Pkg: pkg, Info: info}
	ld.local[path] = lp
	ld.order = append(ld.order, path)
	return lp, nil
}

// loaderImporter adapts loader to types.ImporterFrom: local testdata
// packages first, export data otherwise.
type loaderImporter loader

func (li *loaderImporter) Import(path string) (*types.Package, error) {
	return li.ImportFrom(path, "", 0)
}

func (li *loaderImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	ld := (*loader)(li)
	if st, err := os.Stat(filepath.Join(ld.srcRoot, filepath.FromSlash(path))); err == nil && st.IsDir() {
		lp, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return lp.Pkg, nil
	}
	return ld.std.ImportFrom(path, dir, mode)
}

// stdExports caches export-data file paths for real packages, filled by
// go list on first miss. Shared across tests in the process.
var (
	stdExportsMu sync.Mutex
	stdExports   = map[string]string{}
)

func stdExportLookup(path string) (io.ReadCloser, error) {
	stdExportsMu.Lock()
	file, ok := stdExports[path]
	stdExportsMu.Unlock()
	if !ok {
		if err := fetchExports(path); err != nil {
			return nil, err
		}
		stdExportsMu.Lock()
		file, ok = stdExports[path]
		stdExportsMu.Unlock()
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
	}
	return os.Open(file)
}

func fetchExports(path string) error {
	cmd := exec.Command("go", "list", "-json", "-export", "-deps", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go list -export %s: %v\n%s", path, err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	stdExportsMu.Lock()
	defer stdExportsMu.Unlock()
	for {
		var p struct {
			ImportPath string
			Export     string
		}
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return err
		}
		if p.Export != "" {
			stdExports[p.ImportPath] = p.Export
		}
	}
	return nil
}
