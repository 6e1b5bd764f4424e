package chaos

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.telemetry.txt from this tree")

// TestGoldenSweepTelemetry pins the merged telemetry exposition of two
// 20-seed safe sweeps byte for byte — one at factor 1, one with every
// unit mirrored once — so every counter, gauge and histogram bucket the
// whole stack emits under faults, replication traffic included, is
// covered. Together with the figure CSVs in internal/experiments it is
// the "same behaviour" baseline a refactor is checked against;
// regenerate with
//
//	go test ./internal/chaos -run Golden -update
//
// only when the PR states why the exposition changed.
func TestGoldenSweepTelemetry(t *testing.T) {
	for _, g := range []struct {
		file string
		cfg  Config
	}{
		{"sweep_safe20.telemetry.txt", Config{Profile: ProfileSafe}},
		{"sweep_safe20_repl2.telemetry.txt", Config{Profile: ProfileSafe, Replication: 2}},
	} {
		got := Sweep(g.cfg.Run, 1, 20, 1).Telemetry.Text()
		path := filepath.Join("testdata", g.file)
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (generate with -update)", err)
		}
		if got != string(want) {
			t.Errorf("%s: sweep telemetry drifted from the golden baseline\n--- got ---\n%s--- want ---\n%s", g.file, got, want)
		}
	}
}
