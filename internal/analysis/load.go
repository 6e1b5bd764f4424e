package analysis

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
	"strings"
)

// The loader resolves packages the way the go command sees them: `go
// list -json -export -deps` yields, for every package in the build, the
// source files to parse and a compiled export-data file for every
// import. Target packages are parsed and type-checked from source; all
// imports — including other targets — come from export data, which
// keeps a full ./... load to a couple of seconds without needing the
// x/tools machinery (unavailable offline).

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	CgoFiles   []string
	Export     string
	DepOnly    bool
	Standard   bool
	ForTest    string
	ImportMap  map[string]string
}

// LoadedPackage is one type-checked lint target.
type LoadedPackage struct {
	ImportPath string
	Dir        string
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info

	allows *allowIndex // built lazily; shared so usage marking survives
}

// allowIdx returns the package's //lint:allow index, built once. Fact
// extraction and pass reporting must share the instance: both mark
// entries as exercised, which is what the stale-allow hygiene check
// keys off.
func (lp *LoadedPackage) allowIdx(fset *token.FileSet) *allowIndex {
	if lp.allows == nil {
		lp.allows = buildAllowIndex(fset, lp.Files)
	}
	return lp.allows
}

// Load lists patterns under dir, parses and type-checks every
// non-dependency package, and returns them ready for analysis. Test
// variants are loaded too (the same way go vet covers _test.go files);
// the synthesized ".test" mains are skipped.
func Load(dir string, patterns ...string) (*token.FileSet, []*LoadedPackage, error) {
	args := []string{"list", "-json", "-export", "-deps", "-test"}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	exports := map[string]string{}
	var targets []listPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.DepOnly || p.Standard {
			continue
		}
		if strings.HasSuffix(p.ImportPath, ".test") && p.Name == "main" {
			continue // synthesized test main; its source lives in the build cache
		}
		targets = append(targets, p)
	}

	fset := token.NewFileSet()
	var loaded []*LoadedPackage
	for _, t := range targets {
		files, err := parsePkgFiles(fset, t.Dir, append(append([]string{}, t.GoFiles...), t.CgoFiles...))
		if err != nil {
			return nil, nil, err
		}
		imp := newExportImporter(fset, exports, t.ImportMap)
		pkg, info, err := TypeCheck(fset, t.ImportPath, files, imp)
		if err != nil {
			return nil, nil, fmt.Errorf("type-checking %s: %v", t.ImportPath, err)
		}
		loaded = append(loaded, &LoadedPackage{
			ImportPath: t.ImportPath, Dir: t.Dir, Files: files, Pkg: pkg, Info: info,
		})
	}
	return fset, loaded, nil
}

// parsePkgFiles parses the named files (relative names are joined to
// dir) with comments retained — suppression needs them.
func parsePkgFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// newExportImporter returns an importer that resolves import paths
// through importMap (test-variant remappings, vendoring) and reads gc
// export data from the files go list reported. Each type-check should
// use a fresh importer so test-variant packages never alias their
// non-variant selves.
func newExportImporter(fset *token.FileSet, exports map[string]string, importMap map[string]string) types.ImporterFrom {
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q (not in the go list -deps closure)", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom)
}

// TypeCheck type-checks one package's parsed files, returning the full
// *types.Info the passes need. Type errors are fatal: diagnostics over
// a half-typed tree are noise.
func TypeCheck(fset *token.FileSet, importPath string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	var firstErr error
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", "amd64"),
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	// Strip only the test-binary qualifier ("p [p.test]" → "p"): the
	// external test package keeps its distinct "_test" path so it never
	// aliases the package it imports.
	checkPath := importPath
	if i := strings.Index(checkPath, " ["); i >= 0 {
		checkPath = checkPath[:i]
	}
	pkg, err := conf.Check(checkPath, fset, files, info)
	if firstErr != nil {
		return nil, nil, firstErr
	}
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}
