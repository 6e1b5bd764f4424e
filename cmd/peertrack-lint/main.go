// Command peertrack-lint runs the repo's custom static-analysis suite
// (internal/analysis) over the named packages, every pass every time:
// detwall, detrand, maporder and lockheld (DESIGN §8).
//
//	peertrack-lint ./...
//
// Test files are linted too (test variants, as go vet does). Exit
// status: 0 clean, 2 diagnostics found, 1 operational error.
package main

import (
	"flag"
	"fmt"
	"os"

	"peertrack/internal/analysis"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: peertrack-lint [packages]\n\nPasses:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(os.Stderr, "\nSuppress a finding with `//lint:allow <pass> <why>` on or above the line.\nBare allows, allows for unknown passes, and stale allows are findings themselves.\n")
	}
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	findings, err := analysis.Run(cwd, patterns...)
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "peertrack-lint:", err)
	os.Exit(1)
}
