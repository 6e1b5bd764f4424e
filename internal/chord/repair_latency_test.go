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

// repairScenario builds a static ring, optionally attaches gossip
// agents (with warm views), crashes a deterministic ring segment, and
// returns the maintenance rounds consumed plus any residual violations.
func repairScenario(t *testing.T, seed int64, withGossip bool) (int, []invariants.Violation) {
	t.Helper()
	mem := transport.NewMemory(seed)
	addrs := make([]transport.Addr, repairNodes)
	for i := range addrs {
		addrs[i] = transport.Addr(fmt.Sprintf("repair-%03d", i))
	}
	nodes, err := chord.BuildStaticRing(mem, addrs, chord.Config{SuccessorListLen: repairSuccs})
	if err != nil {
		t.Fatal(err)
	}

	agents := map[transport.Addr]*gossip.Agent{}
	if withGossip {
		for _, n := range nodes {
			n := n
			a := gossip.New(mem, n.Self(), gossip.Config{Seed: gossip.SeedFor(seed, n.Addr())})
			n.SetAppHandler(func(from transport.Addr, req any) (any, error) {
				if resp, handled, err := a.HandleRPC(from, req); handled {
					return resp, err
				}
				return nil, fmt.Errorf("unhandled %T", req)
			})
			a.SeedView(n.Successors())
			agents[n.Addr()] = a
		}
		for w := 0; w < 8; w++ {
			for _, n := range nodes {
				agents[n.Addr()].Round()
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
		if a := agents[victim.Addr()]; a != nil {
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
			core.Maintained{Chord: n, Gossip: agents[n.Addr()]}.OverlayRound()
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
