package spec

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// The committed BENCHMARK.json must be what -manifest prints; run
// `bench/run.sh -manifest > BENCHMARK.json` after changing the lists.
func TestCommittedManifestMatches(t *testing.T) {
	data, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var got Manifest
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if want := BuildManifest(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from spec:\n got %+v\nwant %+v", got, want)
	}
}

// The limits the benchmark contract puts on the manifest.
func TestManifestWithinLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	setup := false
	for _, m := range append(append([]Metric{}, EndToEnd...), PerLayer...) {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if RunSeconds < 1 || RunSeconds > 60 {
		t.Errorf("run_seconds %d", RunSeconds)
	}
}
