package analysis_test

import (
	"os"
	"path/filepath"
	"testing"

	"peertrack/internal/analysis"
)

// TestLiveTreeClean is the lint gate (`make test`, `make race`): the full
// suite (with allow hygiene) over every module package must report
// nothing — a transport call slipping under a store mutex, or a map
// range feeding emitted output, turns this red before it turns a sweep
// red.
func TestLiveTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module via go list -export")
	}
	findings, err := analysis.Run(moduleRoot(t), "./...")
	if err != nil {
		t.Fatalf("linting module: %v", err)
	}
	for _, f := range findings {
		t.Errorf("live tree finding: %s", f)
	}
}

// moduleRoot walks up from the test's working directory to go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above test directory")
		}
		dir = parent
	}
}
