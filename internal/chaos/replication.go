package chaos

import (
	"fmt"
	"math/rand"
	"sort"

	"peertrack/internal/core"
	"peertrack/internal/invariants"
	"peertrack/internal/moods"
	"peertrack/internal/transport"
)

// This file is the replication-failover harness: a crash scenario
// sharpened to the window the k-successor replication exists for. Each
// round it lets a slice of the workload index and mirror fully, then
// kills factor−1 index primaries and — before any repair, revival, or
// ring re-wiring — reads every object whose state predates the crash
// from a live peer. With factor f, the f copies of any bucket (and of
// any repository) live on f distinct consecutive ring nodes, so f−1
// crashes always leave at least one copy alive; the invariant under
// test is that no such read ever returns a stale or empty answer. A
// second workload slice flushes with the primaries still dead, so
// indexing and mirror traffic race the crash. The paired runner
// (ReplicationConfig.Run) executes the same schedule at factor 1 and
// requires it to LOSE reads in that window — proving the failover path,
// not a lucky placement, is what answered them.

// ReplicationConfig parameterizes the replication-failover profile.
// The zero value is usable.
type ReplicationConfig struct {
	// Nodes is the network size (default 16).
	Nodes int
	// Factor is the replication factor under test, total copies
	// including the primary (default 2).
	Factor int
}

func (c *ReplicationConfig) fill() {
	if c.Nodes <= 0 {
		c.Nodes = 16
	}
	if c.Factor <= 0 {
		c.Factor = 2
	}
}

// replicationRounds is the number of crash rounds a scenario runs. Each
// round heals before the next, so the failover window is exercised
// against three victim sets drawn over a growing index.
const replicationRounds = 3

// crashesFor is the number of primaries a round kills when the
// replicated run keeps factor copies: factor−1, the largest count that
// provably leaves every bucket a live copy, and at least one.
func crashesFor(factor int) int { return max(factor-1, 1) }

// ReplicationReport is the outcome of one scenario. Determinism
// contract as for Report: identical config → identical report. Its
// Outcome's Violations are empty on success. At factor ≥ 2 every
// crash-window read must agree with the oracle and every checkpoint
// must pass the full invariant suite plus replica agreement; at factor 1
// the window reads only count (the paired runner asserts they lose).
type ReplicationReport struct {
	Outcome
	Factor int
	// RoundsRun counts crash rounds executed (stops early on failure).
	RoundsRun int
	// WindowLocates / WindowOK count the crash-window reads and how
	// many agreed with the oracle; WindowTraces / WindowTraceOK the
	// same for full traces (which walk the mirrored repositories).
	WindowLocates, WindowOK     int
	WindowTraces, WindowTraceOK int
	// Fallthroughs is the final core.replication.fallthrough_reads
	// counter — how many crash-window answers came from a replica.
	Fallthroughs uint64
}

func (r ReplicationReport) String() string {
	return r.line("repl seed %d factor=%d rounds=%d window locate %d/%d trace %d/%d fallthrough=%d",
		r.Seed, r.Factor, r.RoundsRun, r.WindowOK, r.WindowLocates,
		r.WindowTraceOK, r.WindowTraces, r.Fallthroughs)
}

// runReplication runs a filled cfg at seed, killing crashes primaries a
// round.
func runReplication(seed int64, cfg ReplicationConfig, crashes int, peer core.Config) (rep ReplicationReport) {
	rep = ReplicationReport{Outcome: Outcome{Seed: seed}, Factor: cfg.Factor}
	w := newWorld()
	defer func() {
		w.snapshot(&rep.Outcome)
		if w.nw != nil {
			rep.Fallthroughs = w.nw.Telemetry.Counter("core.replication.fallthrough_reads").Value()
		}
	}()

	peer.ReplicationFactor = cfg.Factor
	if err := w.build(seed, cfg.Nodes, peer, paperSpec(cfg.Nodes, true, seed+2_000_003)); err != nil {
		rep.harnessFail("%v", err)
		return rep
	}
	nw, wl := w.nw, w.wl

	rng := rand.New(rand.NewSource(seed ^ 0x3e91ac55))
	n := len(wl.Observations)
	for round := 0; round < replicationRounds; round++ {
		rep.RoundsRun = round + 1
		lo, hi := round*n/replicationRounds, (round+1)*n/replicationRounds
		mid := lo + (hi-lo)/2

		// Phase A: settled traffic — indexed, stitched, and mirrored.
		for _, obs := range wl.Observations[lo:mid] {
			w.feed(obs)
		}
		nw.Kernel.Run()
		nw.FlushAll()
		nw.FlushAll()
		nw.SyncReplicas()

		// Phase B: kill crashes index primaries. The ring is NOT
		// repaired: this is the failover window.
		for _, addr := range pickPrimaries(nw, rng, crashes) {
			w.kill(addr)
		}

		// A second slice flushes with the primaries dead, so indexing
		// and mirror writes race the crash. Objects it touches have
		// legitimately un-indexed movements; the window reads below
		// check only objects whose whole history predates the crash.
		touched := make(map[moods.ObjectID]bool)
		for _, obs := range wl.Observations[mid:hi] {
			if w.feed(obs) {
				touched[obs.Object] = true
			}
		}
		nw.Kernel.Run()
		nw.FlushAll()

		var asker *core.Peer
		for _, p := range nw.Peers() {
			if !w.crashed[p.Addr()] {
				asker = p
				break
			}
		}
		now := nw.Kernel.Now()
		for _, obj := range wl.Objects {
			if touched[obj] || w.lastSeen[obj] == "" {
				continue
			}
			want, _ := nw.Oracle.Locate(obj, now)
			res, err := asker.Locate(obj, now)
			rep.WindowLocates++
			switch {
			case err == nil && res.Node == want:
				rep.WindowOK++
			case cfg.Factor >= 2:
				rep.Violations = append(rep.Violations, invariants.Violation{
					Invariant: "replica-failover", Object: obj,
					Detail: fmt.Sprintf("round %d crash-window locate: got %q err=%v, want %q", round, res.Node, err, want),
				})
			}
			wantPath := nw.Oracle.FullTrace(obj)
			tres, terr := asker.FullTrace(obj)
			rep.WindowTraces++
			switch {
			case terr == nil && tres.Path.Equal(wantPath):
				rep.WindowTraceOK++
			case cfg.Factor >= 2:
				rep.Violations = append(rep.Violations, invariants.Violation{
					Invariant: "replica-failover", Object: obj,
					Detail: fmt.Sprintf("round %d crash-window trace: got %v err=%v, want %v", round, tres.Path.Nodes(), terr, wantPath.Nodes()),
				})
			}
		}
		if cfg.Factor >= 2 && rep.Failed() {
			return rep
		}

		// Heal, converge, and hold the full invariant suite plus
		// replica agreement at the round boundary.
		if vs := w.checkpoint(round, invariants.Options{Exact: true}); len(vs) > 0 {
			rep.Violations = vs
			return rep
		}
	}
	return rep
}

// pickPrimaries selects k distinct live peers currently holding a
// non-empty index bucket — the nodes whose crash takes primary state
// with it — by scenario RNG over the deterministic candidate order.
func pickPrimaries(nw *core.Network, rng *rand.Rand, k int) []transport.Addr {
	var candidates []transport.Addr
	for _, p := range nw.Peers() {
		for _, b := range p.DumpIndex() {
			if len(b.Entries) > 0 {
				candidates = append(candidates, p.Addr())
				break
			}
		}
	}
	sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
	if k > len(candidates)-1 {
		k = len(candidates) - 1 // always leave a live primary to ask from
	}
	if k < 0 {
		k = 0
	}
	perm := rng.Perm(len(candidates))[:k]
	sort.Ints(perm)
	out := make([]transport.Addr, k)
	for i, idx := range perm {
		out[i] = candidates[idx]
	}
	return out
}

// ReplicationPairReport is the paired replicated/baseline verdict for
// one seed. Its Outcome's Violations are empty when the pair matches the
// expectation: the replicated run answers every crash-window read (with
// at least one replica fallthrough) while the factor-1 baseline, under
// the same crash schedule, provably loses reads. Its Telemetry is the
// replicated run's.
type ReplicationPairReport struct {
	Outcome
	Replicated ReplicationReport
	Baseline   ReplicationReport
}

// Lines prints the replicated run, then the baseline.
func (p ReplicationPairReport) Lines() []string {
	return []string{p.Replicated.String(), p.Baseline.String()}
}

// Run runs the replication profile's crash schedule for seed twice — at
// cfg.Factor and at factor 1 with the identical victim count — and
// asserts the discriminating outcome the harness is checked in for.
func (cfg ReplicationConfig) Run(seed int64) ReplicationPairReport { return cfg.run(seed, core.Config{}) }

// run is Run on peers configured as peer (runSchedule's seam).
func (cfg ReplicationConfig) run(seed int64, peer core.Config) ReplicationPairReport {
	cfg.fill()
	crashes := crashesFor(cfg.Factor) // same victims despite the factor drop
	base := cfg
	base.Factor = 1
	pair := ReplicationPairReport{
		Replicated: runReplication(seed, cfg, crashes, peer),
		Baseline:   runReplication(seed, base, crashes, peer),
	}
	pair.Seed, pair.Telemetry = seed, pair.Replicated.Telemetry
	if pair.Replicated.Failed() {
		pair.Violations = append(pair.Violations, invariants.Violation{
			Invariant: "replication-pair",
			Detail:    fmt.Sprintf("seed %d: replicated run (factor %d) failed", seed, cfg.Factor),
		})
		pair.Violations = append(pair.Violations, pair.Replicated.Violations...)
	}
	if pair.Replicated.Fallthroughs == 0 {
		pair.Violations = append(pair.Violations, invariants.Violation{
			Invariant: "replication-pair",
			Detail:    fmt.Sprintf("seed %d: no crash-window read used a replica — schedule exercised nothing", seed),
		})
	}
	if pair.Baseline.WindowOK == pair.Baseline.WindowLocates && pair.Baseline.WindowTraceOK == pair.Baseline.WindowTraces {
		pair.Violations = append(pair.Violations, invariants.Violation{
			Invariant: "replication-pair",
			Detail: fmt.Sprintf("seed %d: factor-1 baseline lost no crash-window reads (%d/%d locates) — schedule too weak to discriminate",
				seed, pair.Baseline.WindowOK, pair.Baseline.WindowLocates),
		})
	}
	return pair
}
