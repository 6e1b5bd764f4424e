package analysis

import (
	"testing"
)

func TestNormalizeImportPath(t *testing.T) {
	cases := []struct{ in, want string }{
		{"peertrack/internal/sim", "peertrack/internal/sim"},
		{"peertrack/internal/sim [peertrack/internal/sim.test]", "peertrack/internal/sim"},
		{"peertrack/internal/sim_test [peertrack/internal/sim.test]", "peertrack/internal/sim"},
		{"peertrack/internal/sim.test", "peertrack/internal/sim"},
		{"peertrack/internal/transport", "peertrack/internal/transport"},
	}
	for _, c := range cases {
		if got := NormalizeImportPath(c.in); got != c.want {
			t.Errorf("NormalizeImportPath(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestDeterministicAllowlist(t *testing.T) {
	p := "peertrack/internal/experiments"
	if !deterministicOnly(p) {
		t.Errorf("%s should be in the deterministic set", p)
	}
	if !deterministicOnly(p + " [" + p + ".test]") {
		t.Errorf("test variant of %s should inherit the deterministic set", p)
	}
	for _, p := range []string{
		"peertrack/internal/transport", // owns the wall-clock TCP path
		"peertrack/internal/ctlapi",    // live control plane
		"peertrack/cmd/trackd",
		"peertrack",
		// Deterministic, but pinned by their tests (DESIGN §8).
		"peertrack/internal/sim", "peertrack/internal/core",
	} {
		if deterministicOnly(p) {
			t.Errorf("%s should not be in the deterministic set", p)
		}
	}
}

func TestLoadRealPackage(t *testing.T) {
	// Smoke-test the go list loader on a small real package, test
	// variant included.
	fset, pkgs, err := Load("..", "peertrack/internal/metrics")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) < 2 {
		t.Fatalf("expected package + test variant, got %d packages", len(pkgs))
	}
	for _, lp := range pkgs {
		if lp.Pkg == nil || lp.Info == nil || len(lp.Files) == 0 {
			t.Errorf("%s: incomplete load", lp.ImportPath)
		}
		if _, err := RunPackage(fset, lp, All(), RunOptions{RespectFilters: true}); err != nil {
			t.Errorf("RunPackage(%s): %v", lp.ImportPath, err)
		}
	}
}

func TestDedup(t *testing.T) {
	f := func(file string, line int, msg string) Finding {
		fd := Finding{Analyzer: "x", Message: msg}
		fd.Pos.Filename = file
		fd.Pos.Line = line
		return fd
	}
	in := []Finding{f("a.go", 1, "m"), f("a.go", 1, "m"), f("a.go", 2, "m")}
	out := Dedup(in)
	if len(out) != 2 {
		t.Fatalf("Dedup: got %d findings, want 2", len(out))
	}
}
