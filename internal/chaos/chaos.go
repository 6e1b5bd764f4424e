// Package chaos is a deterministic fault-injection harness for the
// whole PeerTrack stack. From a single integer seed it generates a
// scenario — a workload of object movements plus a schedule of fault
// epochs (node crashes, symmetric partitions, membership churn, random
// message loss) — executes it over the in-memory transport and the
// discrete-event kernel, and checks the global protocol invariants
// (internal/invariants) at every epoch boundary.
//
// Determinism is the contract: the same seed always produces the same
// schedule, the same message interleaving, the same fault pattern, and
// therefore the same verdict. That makes every failure a one-line
// reproduction ("seed 4217 violates iop-exact") instead of a flaky CI
// log, and lets the minimizer (Minimize) shrink a failing schedule to
// its essential epochs by deterministic re-execution.
//
// Two profiles:
//
//   - safe: structural faults only (crashes, partitions, churn) with
//     zero random loss. Every invariant must hold exactly at every
//     checkpoint, and every query must agree with the oracle — any
//     deviation is a bug.
//   - lossy: adds a nonzero per-call drop probability. Lost IOP stitch
//     messages are permanent (they are fire-and-forget by design), so
//     exactness is not required; instead queries after a final
//     loss-free settle must stay within configured degradation bounds.
//
// churn.go and replication.go add the paired churn10x and repl profiles.
// Every profile is a function from a seed to a Verdict, and Sweep runs
// any of them.
package chaos

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"peertrack/internal/core"
	"peertrack/internal/moods"
	"peertrack/internal/workload"
)

// Profile selects the strictness regime of a scenario.
type Profile string

const (
	// ProfileSafe runs structural faults at drop rate zero; every
	// invariant (including IOP exactness) must hold.
	ProfileSafe Profile = "safe"
	// ProfileLossy adds random message loss; structural invariants must
	// hold and query accuracy must stay within the configured bounds.
	ProfileLossy Profile = "lossy"
)

// Config parameterizes scenario generation and execution. The zero
// value is usable: every field has a small-but-interesting default.
// The seed is not a field: it is the argument of Run, Generate,
// RunSchedule and Minimize, and drives the schedule, the workload and
// the fault randomness.
type Config struct {
	// Profile is the strictness regime (default safe).
	Profile Profile
	// Nodes is the initial network size (default 12).
	Nodes int
	// Epochs is the number of fault epochs to generate (default 4).
	Epochs int
	// DropRate is the per-call loss probability during lossy epochs
	// (default 0.2; ignored by the safe profile).
	DropRate float64
	// MinLocateOK / MinTraceOK are the lossy profile's degradation
	// floors: the fraction of queries that must agree with the oracle
	// after the final loss-free settle (defaults 0.8 and 0.5).
	MinLocateOK float64
	MinTraceOK  float64
	// Replication is the total number of copies of every gateway bucket
	// and IOP repository, primary included (default 1 = no mirroring).
	// At 2 and above every checkpoint additionally runs a repair round
	// and the replica-agreement invariant.
	Replication int
}

func (c *Config) fill() {
	if c.Profile == "" {
		c.Profile = ProfileSafe
	}
	if c.Nodes <= 0 {
		c.Nodes = 12
	}
	if c.Epochs <= 0 {
		c.Epochs = 4
	}
	if c.DropRate <= 0 || c.DropRate >= 1 {
		c.DropRate = 0.2
	}
	if c.MinLocateOK <= 0 {
		c.MinLocateOK = 0.8
	}
	if c.MinTraceOK <= 0 {
		c.MinTraceOK = 0.5
	}
	if c.Replication <= 0 {
		c.Replication = 1
	}
}

// paperSpec is the workload of every generated schedule and replication
// scenario over nodes peers: 3 objects a node, half of them moving along
// 4-stop routes (capped at the network size). That is a few dozen
// objects whose traces cross several repositories and gateways, small
// enough that a 500-seed sweep runs in seconds.
func paperSpec(nodes int, grouped bool, seed int64) workload.PaperSpec {
	names := make([]moods.NodeName, nodes)
	for i := range names {
		names[i] = core.NodeNameFor(i)
	}
	return workload.PaperSpec{
		Nodes:          names,
		ObjectsPerNode: 3,
		MoveFraction:   0.5,
		TraceLen:       min(4, nodes),
		Grouped:        grouped,
		Seed:           seed,
		Spread:         10 * time.Second,
		HopGap:         time.Minute,
	}
}

// EpochKind names what a fault epoch does to the network.
type EpochKind string

const (
	// EpochCalm injects no fault: objects move, windows flush.
	EpochCalm EpochKind = "calm"
	// EpochCrash kills Victims nodes for the epoch (revived at its end).
	EpochCrash EpochKind = "crash"
	// EpochPartition splits Victims nodes into a separate partition
	// group for the epoch (healed at its end).
	EpochPartition EpochKind = "partition"
	// EpochGrow adds Victims nodes to the ring (splitting Lp groups).
	EpochGrow EpochKind = "grow"
	// EpochShrink removes Victims nodes (voluntary departures; their
	// repositories leave with them).
	EpochShrink EpochKind = "shrink"
)

// Epoch is one step of a chaos schedule: a fault is injected, a slice
// of the workload plays out, the fault heals, the network settles, the
// invariants are checked, and Queries oracle-verified queries run.
type Epoch struct {
	Kind EpochKind
	// Victims is the number of nodes affected (crashed, partitioned,
	// added, or removed); the runner clamps it to what the current
	// network size allows.
	Victims int
	// Queries is the number of oracle-checked locate/trace probes
	// issued after the epoch settles.
	Queries int
}

// Schedule is a fully generated scenario: the movement workload and the
// fault epochs laid over it.
type Schedule struct {
	Spec   workload.PaperSpec
	Epochs []Epoch
}

// String renders the schedule compactly, e.g.
// "calm q3 | crash(2) q2 | grow(1) q4" — the form printed for failing
// seeds.
func (s Schedule) String() string {
	parts := make([]string, len(s.Epochs))
	for i, e := range s.Epochs {
		if e.Kind == EpochCalm {
			parts[i] = fmt.Sprintf("calm q%d", e.Queries)
		} else {
			parts[i] = fmt.Sprintf("%s(%d) q%d", e.Kind, e.Victims, e.Queries)
		}
	}
	return strings.Join(parts, " | ")
}

// Generate derives a schedule deterministically from seed. The
// first epoch is always calm so the initial object placements index
// before faults begin; later epochs draw from all kinds.
func Generate(cfg Config, seed int64) Schedule {
	cfg.fill()
	rng := rand.New(rand.NewSource(seed ^ 0x5eedc8a05))

	sched := Schedule{Spec: paperSpec(cfg.Nodes, rng.Intn(2) == 0, seed+1_000_003)}

	kinds := []EpochKind{
		EpochCrash, EpochCrash, EpochPartition, EpochPartition,
		EpochGrow, EpochShrink, EpochCalm,
	}
	for i := 0; i < cfg.Epochs; i++ {
		ep := Epoch{Kind: EpochCalm}
		if i > 0 {
			ep.Kind = kinds[rng.Intn(len(kinds))]
		}
		switch ep.Kind {
		case EpochCrash, EpochPartition:
			ep.Victims = 1 + rng.Intn(3)
		case EpochGrow:
			ep.Victims = 1 + rng.Intn(2)
		case EpochShrink:
			ep.Victims = 1 + rng.Intn(2)
		}
		ep.Queries = 2 + rng.Intn(3)
		sched.Epochs = append(sched.Epochs, ep)
	}
	return sched
}
