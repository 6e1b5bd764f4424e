package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"peertrack/internal/chord"
	"peertrack/internal/core"
	"peertrack/internal/gossip"
	"peertrack/internal/invariants"
	"peertrack/internal/sim"
	"peertrack/internal/telemetry"
	"peertrack/internal/transport"
)

// This file is the churn-convergence harness: a chord-level scenario
// runner more violent than the default chaos generator. The default
// schedule crashes 1–3 of ~12 nodes per epoch and revives them; here
// every fault round permanently crashes a contiguous ring segment one
// node longer than the successor list — protocol-level churn with no
// static rewiring and no revival, repaired only by the maintenance
// protocol itself.
//
// The segment crash is the scenario from Marinković et al. (PAPERS.md)
// where naive stabilization provably cannot reconverge: the live node
// preceding the dead segment holds a successor list consisting
// entirely of crashed nodes, so Stabilize has no live peer to learn
// from and the node is stranded forever — Chord-only runs fail the
// ring-reconverge invariant deterministically. With the gossip
// membership layer enabled, the stranded node's failure detector
// condemns the dead successors and RepairFromSamples refills the list
// from live gossip samples, so the same schedule reconverges within
// the budget. That paired outcome is the tentpole acceptance check,
// asserted by RunChurnPair.

// ChurnConfig selects one run of the churn10x scenario: its seed, and
// whether the gossip membership layer runs. Everything else is the
// scenario's shape, fixed by the constants below.
type ChurnConfig struct {
	// Seed drives everything: victim selection and (via derived seeds)
	// every gossip agent's RNG.
	Seed int64
	// Gossip enables the membership layer: agents exchange views each
	// maintenance round and feed RepairFromSamples ahead of Stabilize.
	Gossip bool
}

// The churn10x scenario: per fault round a ring segment of r+1 nodes
// crashes for good, about an eighth of the initial membership, against
// the default generator's 1–3 revived crashes of ~12 nodes an epoch.
const (
	// churnNodes is the initial ring size.
	churnNodes = 32
	// churnSuccessors is Chord's r for every node, small enough that a
	// segment crash can swallow a whole successor list.
	churnSuccessors = 3
	// churnSegment is r+1: the live node before the segment is left
	// with a successor list of dead nodes only, the stranding of
	// Marinković et al. that Stabilize alone cannot repair.
	churnSegment = churnSuccessors + 1
	// churnRounds is the number of fault rounds; five segments take the
	// ring from 32 nodes to 12.
	churnRounds = 5
	// churnBudget is the reconvergence invariant's N: the maintenance
	// rounds a ring may take after a round's faults. Gossip-assisted
	// runs close in 2–6; a stranded Chord-only ring never does.
	churnBudget = 30
	// churnWarmupRounds is how many gossip rounds mix views and
	// samplers before the first fault. The pair discriminates without
	// them; they shape the convergence latencies
	// TestChurn10xDiscriminates bounds.
	churnWarmupRounds = 8
	// churnRoundInterval is the virtual time between maintenance
	// rounds, each run as one sim-kernel event. Only their order
	// matters: a run's report is the same at any positive interval.
	churnRoundInterval = 500 * time.Millisecond
	// churnMinLive floors the live population, 2r+2, so no run of
	// crashes can consume the ring.
	churnMinLive = 2*churnSuccessors + 2
)

// ChurnReport is the outcome of one churn scenario. Determinism
// contract as for Report: identical config → identical report. Its
// Outcome's Violations are empty on success; on failure they hold the
// ring-reconverge violation plus the residual ring state.
type ChurnReport struct {
	Outcome
	Gossip bool
	// RoundsRun counts fault rounds executed (stops early on failure).
	RoundsRun int
	// Converge holds, per completed fault round, the maintenance rounds
	// the ring needed to reconverge.
	Converge []int
}

// MaxConverge returns the worst per-round convergence latency (0 when
// no round completed).
func (r ChurnReport) MaxConverge() int {
	max := 0
	for _, c := range r.Converge {
		if c > max {
			max = c
		}
	}
	return max
}

func (r ChurnReport) String() string {
	mode := "chord-only"
	if r.Gossip {
		mode = "gossip"
	}
	return r.line("churn seed %d [%s] rounds=%d converge=%v", r.Seed, mode, r.RoundsRun, r.Converge)
}

// churnRunner holds one scenario's mutable state.
type churnRunner struct {
	cfg     ChurnConfig
	kernel  *sim.Kernel
	mem     *transport.Memory
	tel     *telemetry.Registry
	rng     *rand.Rand
	members []*core.Peer // live membership, sorted by address; peers with no traffic
}

// RunChurn executes one churn scenario deterministically.
func RunChurn(cfg ChurnConfig) (rep ChurnReport) {
	rep = ChurnReport{Outcome: Outcome{Seed: cfg.Seed}, Gossip: cfg.Gossip}
	r := &churnRunner{
		cfg:    cfg,
		kernel: sim.New(cfg.Seed),
		mem:    transport.NewMemory(cfg.Seed + 1),
		rng:    rand.New(rand.NewSource(cfg.Seed ^ 0x0c84a71a9)),
	}
	r.tel = telemetry.New(r.kernel.Now)
	r.mem.SetTelemetry(r.tel)
	defer func() { rep.Telemetry = r.tel.Snapshot() }()

	// In gossip mode every peer gets an agent; its view is seeded from
	// the wired ring below.
	var agent *gossip.Config
	if cfg.Gossip {
		agent = &gossip.Config{Seed: cfg.Seed}
	}
	for i := 0; i < churnNodes; i++ {
		p, err := core.NewPeer(r.mem, transport.Addr(core.NodeNameFor(i)), false, chord.Config{SuccessorListLen: churnSuccessors}, core.Scheme2, churnNodes, core.Config{}, r.kernel.Now, r.tel, agent)
		if err != nil {
			rep.harnessFail("build ring: %v", err)
			return rep
		}
		r.members = append(r.members, p)
	}
	chord.WireStaticRing(r.liveNodes())
	r.sortMembers()

	if cfg.Gossip {
		for _, p := range r.members {
			p.Gossip().SeedView(p.Node().Successors())
		}
		// Mix views and samplers before the first fault: each warmup
		// round is one kernel-driven gossip round per node.
		for w := 0; w < churnWarmupRounds; w++ {
			r.step(func(p *core.Peer) { p.Gossip().Round() })
		}
	}

	for round := 0; round < churnRounds; round++ {
		rep.RoundsRun = round + 1
		r.crashSegment()

		// One maintenance round, the unit the budget counts: the overlay
		// rows of the maintenance table on every live node.
		maintain := func() { r.step((*core.Peer).OverlayRound) }
		rounds, vs := invariants.CheckReconvergence(r.liveNodes(), maintain, churnBudget)
		rep.Converge = append(rep.Converge, rounds)
		if len(vs) > 0 {
			rep.Violations = vs
			return rep
		}
	}
	return rep
}

// sortMembers keeps the maintenance order deterministic: by address.
func (r *churnRunner) sortMembers() {
	sort.Slice(r.members, func(i, j int) bool {
		return r.members[i].Addr() < r.members[j].Addr()
	})
}

// liveNodes projects the live membership for the invariant checker.
func (r *churnRunner) liveNodes() []*chord.Node {
	out := make([]*chord.Node, len(r.members))
	for i, p := range r.members {
		out[i] = p.Node()
	}
	return out
}

// step runs fn over the live membership in address order, inside one
// sim-kernel event one churnRoundInterval ahead — maintenance is scheduled
// wall-clock-free on virtual time like every other periodic process.
func (r *churnRunner) step(fn func(*core.Peer)) {
	r.kernel.Schedule(churnRoundInterval, func() {
		for _, p := range r.members {
			fn(p)
		}
	})
	r.kernel.Run()
}

// crashSegment permanently crashes a contiguous run of churnSegment
// nodes in ring order, chosen by the scenario RNG — the stabilization
// killer: the survivor immediately before the segment is left with a
// successor list whose live entries all died.
func (r *churnRunner) crashSegment() {
	k := r.crashBudget(churnSegment)
	if k <= 0 {
		return
	}
	ring := append([]*core.Peer(nil), r.members...)
	sort.Slice(ring, func(i, j int) bool {
		return ring[i].Node().ID().Less(ring[j].Node().ID())
	})
	start := r.rng.Intn(len(ring))
	for i := 0; i < k; i++ {
		r.kill(ring[(start+1+i)%len(ring)])
	}
}

// crashBudget clamps a kill count so the live population never drops
// below churnMinLive.
func (r *churnRunner) crashBudget(want int) int {
	return clamp(want, len(r.members)-churnMinLive)
}

// kill crashes one member: its transport endpoint dies mid-protocol (no
// leave, no rewiring, no revival) and it drops out of the maintenance
// schedule and the invariant projection.
func (r *churnRunner) kill(victim *core.Peer) {
	r.mem.Kill(victim.Addr())
	if g := victim.Gossip(); g != nil {
		g.Stop()
	}
	for i, p := range r.members {
		if p == victim {
			r.members = append(r.members[:i], r.members[i+1:]...)
			break
		}
	}
}

// ChurnPairReport is the paired chord-only/gossip verdict for one seed.
// Its Outcome's Violations are empty when the pair matches the
// expectation: chord-only FAILS reconvergence and gossip PASSES it. Its
// Telemetry is the gossip-assisted run's.
type ChurnPairReport struct {
	Outcome
	ChordOnly ChurnReport
	Gossip    ChurnReport
}

// Lines prints the chord-only run, then the gossip-assisted run.
func (p ChurnPairReport) Lines() []string {
	return []string{p.ChordOnly.String(), p.Gossip.String()}
}

// RunChurnPair runs the churn schedule for seed twice — Chord-only and
// gossip-assisted — and asserts the discriminating outcome the 10×
// profile is checked in for: stabilization alone must miss the
// reconvergence budget, and the gossip membership layer must meet it.
func RunChurnPair(seed int64) ChurnPairReport {
	pair := ChurnPairReport{
		ChordOnly: RunChurn(ChurnConfig{Seed: seed}),
		Gossip:    RunChurn(ChurnConfig{Seed: seed, Gossip: true}),
	}
	pair.Seed, pair.Telemetry = seed, pair.Gossip.Telemetry
	if !pair.ChordOnly.Failed() {
		pair.Violations = append(pair.Violations, invariants.Violation{
			Invariant: "churn-pair",
			Detail: fmt.Sprintf("seed %d: chord-only run unexpectedly reconverged (converge=%v) — churn too weak to discriminate",
				seed, pair.ChordOnly.Converge),
		})
	}
	if pair.Gossip.Failed() {
		pair.Violations = append(pair.Violations, invariants.Violation{
			Invariant: "churn-pair",
			Detail:    fmt.Sprintf("seed %d: gossip-assisted run failed reconvergence", seed),
		})
		pair.Violations = append(pair.Violations, pair.Gossip.Violations...)
	}
	return pair
}
