package chaos

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.telemetry.txt from this tree")

// TestGoldenSweepTelemetry pins the merged telemetry exposition of a
// 20-seed safe sweep byte for byte: every counter, gauge and histogram
// bucket the whole stack emits under faults. Together with the figure
// CSVs in internal/experiments it is the "same behaviour" baseline a
// refactor is checked against; regenerate with
//
//	go test ./internal/chaos -run Golden -update
//
// only when the PR states why the exposition changed.
func TestGoldenSweepTelemetry(t *testing.T) {
	got := Sweep(Config{Seed: 1, Profile: ProfileSafe}, 20, 1).Telemetry.Text()
	path := filepath.Join("testdata", "sweep_safe20.telemetry.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("sweep telemetry drifted from the golden baseline\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
