package chord_test

// Repair-latency regression: the same segment-crash scenario run twice,
// once on stabilization alone and once with gossip samples feeding
// RepairFromSamples ahead of each stabilize round. The chord-only
// baseline is pinned — a segment at least as long as the successor list
// strands the preceding survivor, so stabilization exhausts the whole
// round budget and still fails — and the gossip-assisted run must
// reconverge in strictly fewer rounds. Lives in the external test
// package like the other churn regressions (invariants imports chord).

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"peertrack/internal/chord"
	"peertrack/internal/core"
	"peertrack/internal/gossip"
	"peertrack/internal/invariants"
	"peertrack/internal/transport"
)

const (
	repairNodes   = 16
	repairSuccs   = 3
	repairSegment = repairSuccs + 1
	repairBudget  = 20
)

// repairScenario builds a static ring of peers with no traffic,
// optionally with gossip agents (with warm views), crashes a
// deterministic ring segment, and returns the maintenance rounds
// consumed plus any residual violations.
func repairScenario(t *testing.T, seed int64, withGossip bool) (int, []invariants.Violation) {
	t.Helper()
	mem := transport.NewMemory(seed)
	var agent *gossip.Config
	if withGossip {
		agent = &gossip.Config{Seed: seed}
	}
	peers := map[transport.Addr]*core.Peer{}
	var nodes []*chord.Node
	for i := 0; i < repairNodes; i++ {
		p, err := core.NewPeer(mem, transport.Addr(fmt.Sprintf("repair-%03d", i)), false, chord.Config{SuccessorListLen: repairSuccs}, core.Scheme2, repairNodes, core.Config{}, func() time.Duration { return 0 }, nil, agent)
		if err != nil {
			t.Fatal(err)
		}
		peers[p.Addr()], nodes = p, append(nodes, p.Node())
	}
	chord.WireStaticRing(nodes)

	if withGossip {
		for _, n := range nodes {
			peers[n.Addr()].Gossip().SeedView(n.Successors())
		}
		for w := 0; w < 8; w++ {
			for _, n := range nodes {
				peers[n.Addr()].Gossip().Round()
			}
		}
	}

	// Crash the segment immediately after the first node in ring order:
	// the survivor's successor list (length repairSuccs) lies entirely
	// inside the crashed run of repairSegment nodes.
	ring := append([]*chord.Node(nil), nodes...)
	sort.Slice(ring, func(i, j int) bool { return ring[i].ID().Less(ring[j].ID()) })
	dead := map[transport.Addr]bool{}
	for i := 0; i < repairSegment; i++ {
		victim := ring[1+i]
		mem.Kill(victim.Addr())
		dead[victim.Addr()] = true
		if a := peers[victim.Addr()].Gossip(); a != nil {
			a.Stop()
		}
	}
	live := make([]*chord.Node, 0, repairNodes-repairSegment)
	for _, n := range ring {
		if !dead[n.Addr()] {
			live = append(live, n)
		}
	}

	maintain := func() {
		for _, n := range live {
			peers[n.Addr()].OverlayRound()
		}
	}
	return invariants.CheckReconvergence(live, maintain, repairBudget)
}

// TestRepairLatencyImprovesWithGossip pins the comparison on several
// seeds: chord-only consumes the full budget and still fails (the
// stranded-survivor baseline), gossip-assisted converges in strictly
// fewer rounds with no violations.
func TestRepairLatencyImprovesWithGossip(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		baseRounds, baseViolations := repairScenario(t, seed, false)
		if len(baseViolations) == 0 {
			t.Fatalf("seed %d: chord-only baseline unexpectedly reconverged in %d rounds — scenario no longer strands", seed, baseRounds)
		}
		if baseRounds != repairBudget {
			t.Errorf("seed %d: chord-only consumed %d rounds, pinned baseline is the full budget %d", seed, baseRounds, repairBudget)
		}
		if baseViolations[0].Invariant != "ring-reconverge" {
			t.Errorf("seed %d: baseline failed with %q, want ring-reconverge", seed, baseViolations[0].Invariant)
		}

		gossipRounds, gossipViolations := repairScenario(t, seed, true)
		for _, v := range gossipViolations {
			t.Errorf("seed %d: gossip-assisted: %s", seed, v)
		}
		if gossipRounds >= baseRounds {
			t.Errorf("seed %d: gossip repair latency %d not strictly below chord-only %d", seed, gossipRounds, baseRounds)
		}
	}
}

// TestRepairLatencyDeterministic pins that the measured latencies are a
// pure function of the seed.
func TestRepairLatencyDeterministic(t *testing.T) {
	a1, _ := repairScenario(t, 9, true)
	a2, _ := repairScenario(t, 9, true)
	if a1 != a2 {
		t.Errorf("same seed, different gossip repair latency: %d vs %d", a1, a2)
	}
}
