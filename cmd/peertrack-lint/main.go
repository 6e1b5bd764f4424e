// Command peertrack-lint runs the repo's custom static-analysis suite
// (internal/analysis), six passes: the syntax passes detwall, detrand
// and maporder, and the interprocedural passes lockheld, sendalias and
// sortedsource.
//
//	peertrack-lint ./...
//	peertrack-lint -pass lockheld,sendalias ./internal/...
//
// Test files are linted too (test variants, as go vet does). Exit
// status: 0 clean, 2 diagnostics found, 1 operational error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"peertrack/internal/analysis"
)

func main() {
	passSpec := flag.String("pass", "", "comma-separated subset of passes to run (default: all six)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: peertrack-lint [-pass a,b] [packages]\n\nPasses:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(os.Stderr, "\nSuppress a finding with `//lint:allow <pass> <why>` on or above the line.\nBare allows, allows for unknown passes, and stale allows are findings themselves.\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	passes, err := selectPasses(*passSpec)
	if err != nil {
		fatal(err)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	findings, err := analysis.Run(cwd, passes, patterns...)
	if err != nil {
		fatal(err)
	}
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "peertrack-lint: %d finding(s)\n", len(findings))
		os.Exit(2)
	}
}

func selectPasses(spec string) ([]*analysis.Analyzer, error) {
	all := analysis.All()
	if spec == "" {
		return all, nil
	}
	byName := map[string]*analysis.Analyzer{}
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(spec, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown pass %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "peertrack-lint:", err)
	os.Exit(1)
}
