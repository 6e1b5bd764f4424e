package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// A Finding is one resolved diagnostic: position information is
// flattened so findings can be deduplicated across test-variant loads
// of the same file.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// AllowPrefix is the suppression marker: a comment of the form
//
//	//lint:allow <pass> <reason>
//
// on the flagged line (or the line immediately above it) suppresses
// that pass's diagnostics for the line. The reason is mandatory: a bare
// `//lint:allow <pass>` is itself a diagnostic (analyzer "allow"), as
// is an allow for an unknown pass or one that suppresses nothing.
const AllowPrefix = "lint:allow"

// AllowHygieneName is the analyzer name hygiene findings report under.
// Hygiene findings are not themselves suppressible.
const AllowHygieneName = "allow"

// allowEntry is one //lint:allow comment.
type allowEntry struct {
	pass      string
	hasReason bool
	pos       token.Position // position of the comment itself
	used      bool
}

// allowIndex maps file → line → the entries covering that line. A
// comment covers its own line and the next one, so both trailing and
// preceding placements work. Usage is tracked on the shared entry, so
// suppression during fact extraction (ComputeFacts) and during pass
// reporting both count toward "exercised".
type allowIndex struct {
	byLine  map[string]map[int][]*allowEntry
	entries []*allowEntry
}

func buildAllowIndex(fset *token.FileSet, files []*ast.File) *allowIndex {
	idx := &allowIndex{byLine: map[string]map[int][]*allowEntry{}}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, AllowPrefix) {
					continue
				}
				rest := text[len(AllowPrefix):]
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. lint:allowances — not the marker
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				e := &allowEntry{pass: fields[0], hasReason: len(fields) > 1, pos: pos}
				idx.entries = append(idx.entries, e)
				m := idx.byLine[pos.Filename]
				if m == nil {
					m = map[int][]*allowEntry{}
					idx.byLine[pos.Filename] = m
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					m[line] = append(m[line], e)
				}
			}
		}
	}
	return idx
}

// allows reports whether an allow for analyzer covers pos, marking the
// entry as exercised.
func (idx *allowIndex) allows(pos token.Position, analyzer string) bool {
	ok := false
	for _, e := range idx.byLine[pos.Filename][pos.Line] {
		if e.pass == analyzer {
			e.used = true
			ok = true
		}
	}
	return ok
}

// hygiene returns the allow-comment findings: unknown pass names,
// missing reasons, and allows that suppressed nothing.
func (idx *allowIndex) hygiene(known map[string]bool) []Finding {
	var out []Finding
	for _, e := range idx.entries {
		switch {
		case !known[e.pass]:
			out = append(out, Finding{Analyzer: AllowHygieneName, Pos: e.pos,
				Message: fmt.Sprintf("//lint:allow names unknown pass %q", e.pass)})
		case !e.hasReason:
			out = append(out, Finding{Analyzer: AllowHygieneName, Pos: e.pos,
				Message: fmt.Sprintf("//lint:allow %s needs a reason: `//lint:allow %s <why this is safe>`", e.pass, e.pass)})
		case !e.used:
			out = append(out, Finding{Analyzer: AllowHygieneName, Pos: e.pos,
				Message: fmt.Sprintf("stale //lint:allow %s: it suppresses nothing — remove it", e.pass)})
		}
	}
	return out
}

// KnownPassNames is the set of valid //lint:allow targets.
func KnownPassNames() map[string]bool {
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	return known
}

// RunOptions configures RunPackage.
type RunOptions struct {
	// RespectFilters applies each analyzer's AppliesTo predicate.
	RespectFilters bool
	// Facts is the interprocedural store, already filled for every
	// loaded package. lockheld needs it; the syntax passes ignore it.
	Facts *FactStore
	// CheckAllows appends allow-hygiene findings for this package; the
	// analyzers run must be the full suite, or an allow for a pass left
	// out reads as stale.
	CheckAllows bool
}

// RunPackage executes the analyzers against one loaded package,
// applying //lint:allow suppression, and returns the surviving findings
// sorted by position.
func RunPackage(fset *token.FileSet, lp *LoadedPackage, analyzers []*Analyzer, opts RunOptions) ([]Finding, error) {
	allow := lp.allowIdx(fset)
	var findings []Finding
	for _, a := range analyzers {
		if opts.RespectFilters && a.AppliesTo != nil && !a.AppliesTo(lp.ImportPath) {
			continue
		}
		pass := &Pass{
			Analyzer:   a,
			Fset:       fset,
			Files:      lp.Files,
			Pkg:        lp.Pkg,
			TypesInfo:  lp.Info,
			ImportPath: lp.ImportPath,
			Facts:      opts.Facts,
		}
		name := a.Name
		pass.Report = func(d Diagnostic) {
			pos := fset.Position(d.Pos)
			if allow.allows(pos, name) {
				return
			}
			findings = append(findings, Finding{Analyzer: name, Pos: pos, Message: d.Message})
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s on %s: %v", a.Name, lp.ImportPath, err)
		}
	}
	if opts.CheckAllows {
		findings = append(findings, allow.hygiene(KnownPassNames())...)
	}
	SortFindings(findings)
	return findings, nil
}

// Run is the driver: it loads patterns under dir, summarizes every
// loaded package into one fact store — the interprocedural queries need
// the whole module's summaries, and fact extraction consumes
// //lint:allow comments the stale-allow check accounts for — then runs
// every pass over each package with filters, suppression and allow
// hygiene. Findings come back sorted, a file linted both in its package
// and its test variant reported once.
func Run(dir string, patterns ...string) ([]Finding, error) {
	fset, pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	facts := NewFactStore(fset)
	for _, lp := range pkgs {
		ComputeFacts(fset, lp, facts)
	}
	var findings []Finding
	for _, lp := range pkgs {
		fs, err := RunPackage(fset, lp, All(), RunOptions{
			RespectFilters: true,
			Facts:          facts,
			CheckAllows:    true,
		})
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	SortFindings(findings)
	return Dedup(findings), nil
}

// SortFindings orders findings by file, line, column, analyzer,
// message — a total order, so output is stable run to run.
func SortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// Dedup removes findings that repeat the same (position, analyzer,
// message) — a file linted both as part of its package and its test
// variant reports once. Input must be sorted.
func Dedup(fs []Finding) []Finding {
	out := fs[:0]
	for i, f := range fs {
		if i > 0 && f == fs[i-1] {
			continue
		}
		out = append(out, f)
	}
	return out
}
