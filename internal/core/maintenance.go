package core

import (
	"time"

	"peertrack/internal/chord"
	"peertrack/internal/gossip"
	"peertrack/internal/netsize"
	"peertrack/internal/sim"
)

// This file is the maintenance program: which periodic tasks a
// participant runs, in what order at equal timestamps, at what cadence
// ratios. It is written once, as maintenanceTable; a live node pumps it
// by the wall clock (peertrack.Node), a simulated network runs it to a
// horizon (StartMaintenance), the churn harnesses step its overlay rows
// by hand (OverlayRound). DESIGN.md §15 has the reason for each row.

// Cadences are the table's only inputs, the four periods a deployment
// sets (peertrack.NodeOptions carries the same four). A cadence ≤ 0
// leaves its rows uninstalled.
type Cadences struct {
	Gossip      time.Duration // membership round, then successor repair
	Stabilize   time.Duration // Chord trio; refresh at refreshEvery × this
	Window      time.Duration // T_interval, the capture-window flush
	ReplicaSync time.Duration // anti-entropy; GC at replicaGCEvery × this
}

const (
	// refreshEvery: the paper recalculates Lp "at a relatively long
	// interval" because it grows much slower than Nn.
	refreshEvery = 10
	// replicaGCEvery: probe fast, collect slow. When an owner crashes the
	// failure detector has this many sync intervals to land the verdict
	// that exempts its replicas, before the stopped probes condemn them.
	replicaGCEvery = 4
	// catchUpFirst, catchUpBackoff: a ring change is followed by a catch-up
	// round Stabilize/catchUpFirst later; each round that sees no further
	// change multiplies the gap by catchUpBackoff, and the chain ends when
	// the gap would reach the row's own cadence: log2(64) = 6 extra rounds
	// after the last change, none on a quiet ring.
	catchUpFirst   = 64
	catchUpBackoff = 2
)

// Maintained is one participant as the table sees it. Gossip is nil
// when the membership agent is off; the rows that need it then do
// nothing. Peer is nil only in a Chord-level harness, which runs
// OverlayRound alone. SizePinned: the network-size estimate is set from
// outside (an operator pin, or a simulation's shared PrefixManager fed
// the true node count).
type Maintained struct {
	Chord      *chord.Node
	Gossip     *gossip.Agent
	Peer       *Peer
	SizePinned bool
}

// maintenanceRow is one periodic task.
type maintenanceRow struct {
	name  string
	every func(Cadences) time.Duration
	run   func(Maintained)
}

// maintenanceTable is the schedule. Rows due at the same instant run in
// the order listed, whatever their cadences (sim.Kernel.Every keeps
// install order). The first overlayRows rows touch only Chord and the
// membership agent.
var maintenanceTable = []maintenanceRow{
	{"gossip-round", func(c Cadences) time.Duration { return c.Gossip }, Maintained.gossipRound},
	{"successor-repair", func(c Cadences) time.Duration { return c.Gossip }, Maintained.repairSuccessors},
	{"stabilize", func(c Cadences) time.Duration { return c.Stabilize }, Maintained.stabilize},
	{"window-flush", func(c Cadences) time.Duration { return c.Window }, Maintained.flushWindow},
	{"refresh", func(c Cadences) time.Duration { return refreshEvery * c.Stabilize }, Maintained.refresh},
	{"replica-gc", func(c Cadences) time.Duration { return replicaGCEvery * c.ReplicaSync }, Maintained.replicaGC},
	{"replica-sync", func(c Cadences) time.Duration { return c.ReplicaSync }, Maintained.replicaSync},
}

const overlayRows = 3

// installMaintenance schedules every row of table on k until the
// horizon. each enumerates the participants at firing time, so a network
// whose membership changes is followed without re-installing.
func installMaintenance(k *sim.Kernel, table []maintenanceRow, c Cadences, until sim.Time, each func(visit func(Maintained))) {
	for _, row := range table {
		if d := row.every(c); d > 0 {
			k.Every(d, until, func() { each(row.run) })
		}
	}
}

// Install schedules the table for this one participant on k. A live
// node passes sim.Forever and pumps k by the wall clock. Whoever installs
// the table calls the returned function, on the goroutine that steps k,
// each time m.Chord reports a ring change (chord.Node.OnRingChange): it
// starts the catch-up chain.
func (m Maintained) Install(k *sim.Kernel, c Cadences, until sim.Time) (ringChanged func()) {
	installMaintenance(k, maintenanceTable, c, until, func(visit func(Maintained)) { visit(m) })
	return (&catchUp{k: k, m: m, every: c.Stabilize, until: until}).ringChanged
}

// StartMaintenance schedules the table for every peer of the network
// until the given horizon (so Run still drains). It includes the window
// flush: use it instead of StartWindows, not beside it. Reconcile and
// SyncReplicas remain the stop-the-world barrier invariant checks use.
// Peers that Grow adds later run the rows without a catch-up chain: Grow
// wires them converged.
func (nw *Network) StartMaintenance(c Cadences, until time.Duration) {
	installMaintenance(nw.Kernel, maintenanceTable, c, until, func(visit func(Maintained)) {
		for _, p := range nw.peers {
			visit(nw.maintained(p))
		}
	})
	for _, p := range nw.peers {
		m := nw.maintained(p)
		m.Chord.OnRingChange((&catchUp{k: nw.Kernel, m: m, every: c.Stabilize, until: until}).ringChanged)
	}
}

// maintained is p as the table sees it now.
func (nw *Network) maintained(p *Peer) Maintained {
	return Maintained{Chord: p.node.(*chord.Node), Gossip: p.gossip, Peer: p, SizePinned: true}
}

// catchUp is one participant's catch-up chain: one-shot rounds of the
// stabilize row's trio on the row's kernel, started by a ring change and
// spaced as catchUpFirst describes. A join burst through one bootstrap
// closes one splice per round, so those are the rounds not worth a full
// cadence's wait; the row itself is untouched, and a ring whose pointers
// do not move keeps exactly the table's schedule.
type catchUp struct {
	k       *sim.Kernel
	m       Maintained
	every   time.Duration // the stabilize row's cadence
	until   sim.Time
	gap     time.Duration // before the pending round; 0 when none is pending
	changes uint64        // m.Chord.RingChanges() when that round was scheduled
}

// ringChanged starts the chain unless a round is already pending; that
// round will see the change for itself.
func (c *catchUp) ringChanged() {
	if c.gap == 0 && c.every > 0 && !c.m.Chord.Repairing() {
		c.changes = c.m.Chord.RingChanges()
		c.schedule(c.every/catchUpFirst, 0)
	}
}

// round runs the trio once and decides the next gap. The chain neither
// starts nor goes on once stabilization, in one of its rounds or the
// row's, has met a dead successor: the failure detector and the row own
// a dead neighbour, which must not be probed at the chain's pace.
func (c *catchUp) round() {
	start := c.m.Peer.clock()
	c.m.stabilize()
	took := c.m.Peer.clock() - start
	gap, changes := c.gap*catchUpBackoff, c.m.Chord.RingChanges()
	if changes != c.changes {
		gap = c.every / catchUpFirst
	}
	c.changes, c.gap = changes, 0
	if !c.m.Chord.Repairing() {
		c.schedule(gap, took)
	}
}

// schedule arms the next round gap after the end of the last, which took
// took: nothing on a simulated kernel; on a live node's, wall time, which
// floors the gap so that a cadence shorter than a round cannot spin.
func (c *catchUp) schedule(gap, took time.Duration) {
	if gap < took {
		gap = took
	}
	if gap >= c.every || took+gap > c.until-c.k.Now() {
		return
	}
	c.gap = gap
	c.k.Schedule(took+gap, c.round)
}

// OverlayRound runs the overlay rows once, in table order: one round as
// the reconvergence budget of the churn harnesses counts them.
func (m Maintained) OverlayRound() {
	for _, row := range maintenanceTable[:overlayRows] {
		row.run(m)
	}
}

func (m Maintained) gossipRound() {
	if m.Gossip != nil {
		m.Gossip.Round()
	}
}

func (m Maintained) repairSuccessors() {
	if m.Gossip != nil {
		m.Chord.RepairFromSamples(m.Gossip.Samples(), m.Gossip.IsDead)
	}
}

// stabilize is the Chord trio. A failed stabilization is first-hand
// evidence against the whole successor list; reporting every entry to
// the failure detector is what lets the next repair drop the condemned
// ones and a stranded node escape.
func (m Maintained) stabilize() {
	m.Chord.CheckPredecessor()
	if err := m.Chord.Stabilize(); err != nil && m.Gossip != nil {
		for _, s := range m.Chord.Successors() {
			if !s.Equal(m.Chord.Self()) {
				m.Gossip.Suspect(s)
			}
		}
	}
	m.Chord.FixFingers()
}

func (m Maintained) flushWindow() { m.Peer.FlushWindow() }

// refresh re-derives Lp, then re-homes every bucket whose level or
// gateway placement went stale (ring convergence, membership change),
// one reconcile step per firing.
func (m Maintained) refresh() {
	m.RefreshSize()
	m.Peer.InvalidateGatewayCache()
	m.Peer.ReconcileStep()
}

// RefreshSize re-estimates Nn from the density of the successor list
// unless the size is pinned, and drops cached gateway resolutions when
// Lp moved. Beside the refresh row, a node calls it once on joining.
func (m Maintained) RefreshSize() {
	if m.SizePinned {
		return
	}
	if est := netsize.DensityEstimate(m.Chord.Self(), m.Chord.Successors()); est > 1 {
		if old, cur := m.Peer.pm.SetNetworkSize(est); cur != old {
			m.Peer.InvalidateGatewayCache()
		}
	}
}

// replicaGC closes a repair generation and opens the next. Drop runs
// before Begin: it judges the previous generation, whose probes have
// all had time to arrive. (The replica rows are no-ops at factor 1.)
func (m Maintained) replicaGC() {
	m.Peer.DropStaleReplicas()
	m.Peer.BeginReplicaSync()
}

// replicaSync promotes held units this node now owns and probes every
// owned unit's mirrors; the probe is also the liveness touch that keeps
// a mirror's copy out of the next collection.
func (m Maintained) replicaSync() {
	m.Peer.PromoteOwnedReplicas()
	m.Peer.SyncOwnedReplicas()
}

// Shutdown is a live node's stop path, run after the last row has fired:
// one final window flush, so that events already acknowledged reach
// their gateways (a single attempt under the transport's call budget),
// then the agent stops and the node leaves the ring.
func (m Maintained) Shutdown() error {
	m.flushWindow()
	if m.Gossip != nil {
		m.Gossip.Stop()
	}
	return m.Chord.Leave()
}
