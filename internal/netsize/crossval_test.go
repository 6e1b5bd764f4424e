package netsize_test

// Cross-validation of the two network-size estimators: the
// successor-list density inversion that feeds adaptive Lp (this
// package) against the gossip membership layer's min-wise estimator
// (internal/gossip). The estimators share nothing — different inputs,
// different math — so agreement within the tolerance is evidence each
// is measuring the network, not itself, and divergence on a grow/shrink
// schedule fails the build.

import (
	"sort"
	"testing"

	"peertrack/internal/core"
	"peertrack/internal/gossip"
	"peertrack/internal/netsize"
)

// tolerance is the allowed multiplicative divergence between an
// estimate and the reference. Min-wise with 32 slots carries ~18%
// relative error and density inversion a small constant factor; 1.6×
// holds both with margin while still failing on any systematic drift
// (an estimator stuck at the pre-grow size diverges by 2×).
const tolerance = 1.6

func within(t *testing.T, label string, got, want float64) {
	t.Helper()
	if got <= 0 {
		t.Errorf("%s: estimate %v not positive (want ≈ %v)", label, got, want)
		return
	}
	if got > want*tolerance || got < want/tolerance {
		t.Errorf("%s: estimate %.1f diverges from %.1f beyond %.1f×", label, got, want, tolerance)
	}
}

// TestGossipEstimateCrossValidation drives a core network through a
// grow/shrink schedule and, at every plateau, checks the membership
// layer's size estimate against the true size and the density
// estimator reading the same ring.
func TestGossipEstimateCrossValidation(t *testing.T) {
	nw, err := core.BuildNetwork(core.NetworkConfig{Nodes: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	nw.EnableGossip(gossip.Config{SampleSlots: 32})

	// Mixing budget per plateau: the sampler probes one slot per round,
	// so washing crashed/left minima out of all 32 slots needs up to two
	// probe cycles (suspicion threshold 2) — 80 rounds covers it.
	settle := func(rounds int) {
		for i := 0; i < rounds; i++ {
			nw.GossipRound()
		}
	}

	density := func() float64 {
		ests := make([]float64, 0, len(nw.Peers()))
		for _, p := range nw.Peers() {
			ests = append(ests, netsize.DensityEstimate(p.Node().Self(), p.Node().Neighbors()))
		}
		sort.Float64s(ests)
		return ests[len(ests)/2]
	}

	schedule := []struct {
		name   string
		apply  func() error
		want   float64
		rounds int
	}{
		{"initial 16", func() error { return nil }, 16, 20},
		{"grow to 32", func() error { _, _, err := nw.Grow(16); return err }, 32, 20},
		{"grow to 48", func() error { _, _, err := nw.Grow(16); return err }, 48, 20},
		{"shrink to 24", func() error { _, _, err := nw.Shrink(24); return err }, 24, 80},
		{"shrink to 12", func() error { _, _, err := nw.Shrink(12); return err }, 12, 80},
	}
	for _, step := range schedule {
		if err := step.apply(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		settle(step.rounds)
		got := nw.GossipSizeEstimate()
		within(t, step.name+" gossip vs truth", got, step.want)
		within(t, step.name+" gossip vs density", got, density())
	}
}
