package core

import (
	"time"

	"peertrack/internal/chord"
	"peertrack/internal/netsize"
	"peertrack/internal/sim"
)

// This file is the maintenance program: which periodic tasks a
// participant runs, in what order at equal timestamps, at what cadence
// ratios. It is written once, as maintenanceTable; a live node pumps it
// by the wall clock (peertrack.Node), a simulated network runs it to a
// horizon (StartMaintenance), the churn harnesses step its overlay rows
// by hand (OverlayRound). Each row is a *Peer method. DESIGN.md §15 has
// the reason for each row.

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

// maintenanceRow is one periodic task.
type maintenanceRow struct {
	name  string
	every func(Cadences) time.Duration
	run   func(*Peer)
}

// maintenanceTable is the schedule. Rows due at the same instant run in
// the order listed, whatever their cadences (sim.Kernel.Every keeps
// install order). The first overlayRows rows touch only Chord and the
// membership agent; the rows that need the agent do nothing without one.
var maintenanceTable = []maintenanceRow{
	{"gossip-round", func(c Cadences) time.Duration { return c.Gossip }, (*Peer).gossipRound},
	{"successor-repair", func(c Cadences) time.Duration { return c.Gossip }, (*Peer).repairSuccessors},
	{"stabilize", func(c Cadences) time.Duration { return c.Stabilize }, (*Peer).stabilize},
	{"window-flush", func(c Cadences) time.Duration { return c.Window }, func(p *Peer) { p.FlushWindow() }},
	{"refresh", func(c Cadences) time.Duration { return refreshEvery * c.Stabilize }, func(p *Peer) { p.refresh() }},
	{"replica-gc", func(c Cadences) time.Duration { return replicaGCEvery * c.ReplicaSync }, (*Peer).replicaGC},
	{"replica-sync", func(c Cadences) time.Duration { return c.ReplicaSync }, (*Peer).replicaSync},
}

const overlayRows = 3

// installMaintenance schedules every row of table on k until the
// horizon. each enumerates the participants at firing time, so a network
// whose membership changes is followed without re-installing.
func installMaintenance(k *sim.Kernel, table []maintenanceRow, c Cadences, until sim.Time, each func(visit func(*Peer))) {
	for _, row := range table {
		if d := row.every(c); d > 0 {
			k.Every(d, until, func() { each(row.run) })
		}
	}
}

// Install schedules the table for this one participant on k. A live
// node passes sim.Forever and pumps k by the wall clock. Whoever installs
// the table calls the returned function, on the goroutine that steps k,
// each time the peer's node reports a ring change
// (chord.Node.OnRingChange): it starts the catch-up chain.
func (p *Peer) Install(k *sim.Kernel, c Cadences, until sim.Time) (ringChanged func()) {
	installMaintenance(k, maintenanceTable, c, until, func(visit func(*Peer)) { visit(p) })
	return p.chain(k, c.Stabilize, until)
}

// StartMaintenance schedules the table for every peer of the network
// until the given horizon (so Run still drains). It includes the window
// flush: use it instead of StartWindows, not beside it. Every peer, and
// every peer Grow adds later, gets a catch-up chain.
func (nw *Network) StartMaintenance(c Cadences, until time.Duration) {
	installMaintenance(nw.Kernel, maintenanceTable, c, until, func(visit func(*Peer)) {
		for _, p := range nw.peers {
			visit(p)
		}
	})
	nw.catchUpEvery, nw.catchUpUntil = c.Stabilize, until
	for _, p := range nw.peers {
		p.chord.OnRingChange(p.chain(nw.Kernel, c.Stabilize, until))
	}
}

// catchUp is one participant's catch-up chain: one-shot rounds of the
// stabilize row's trio on the row's kernel, started by a ring change and
// spaced as catchUpFirst describes. A join burst through one bootstrap
// closes one splice per round, so those are the rounds not worth a full
// cadence's wait; the row itself is untouched, and a ring whose pointers
// do not move keeps exactly the table's schedule.
type catchUp struct {
	k       *sim.Kernel
	p       *Peer
	every   time.Duration // the stabilize row's cadence
	until   sim.Time
	gap     time.Duration // before the pending round; 0 when none is pending
	changes uint64        // p.chord.RingChanges() when that round was scheduled
}

// chain returns the ringChanged of a new catch-up chain for p on k.
func (p *Peer) chain(k *sim.Kernel, every time.Duration, until sim.Time) func() {
	return (&catchUp{k: k, p: p, every: every, until: until}).ringChanged
}

// ringChanged starts the chain unless a round is already pending; that
// round will see the change for itself.
func (c *catchUp) ringChanged() {
	if c.gap == 0 && c.every > 0 && !c.p.chord.Repairing() {
		c.changes = c.p.chord.RingChanges()
		c.schedule(c.every/catchUpFirst, 0)
	}
}

// round runs the trio once and decides the next gap. The chain neither
// starts nor goes on once stabilization, in one of its rounds or the
// row's, has met a dead successor: the failure detector and the row own
// a dead neighbour, which must not be probed at the chain's pace.
func (c *catchUp) round() {
	start := c.p.clock()
	c.p.stabilize()
	took := c.p.clock() - start
	gap, changes := c.gap*catchUpBackoff, c.p.chord.RingChanges()
	if changes != c.changes {
		gap = c.every / catchUpFirst
	}
	c.changes, c.gap = changes, 0
	if !c.p.chord.Repairing() {
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
func (p *Peer) OverlayRound() {
	for _, row := range maintenanceTable[:overlayRows] {
		row.run(p)
	}
}

func (p *Peer) gossipRound() {
	if p.gossip != nil {
		p.gossip.Round()
	}
}

func (p *Peer) repairSuccessors() {
	if p.gossip != nil {
		p.chord.RepairFromSamples(p.gossip.Samples(), p.gossip.IsDead)
	}
}

// stabilize is the Chord trio. A failed stabilization is first-hand
// evidence against the whole successor list; reporting every entry to
// the failure detector is what lets the next repair drop the condemned
// ones and a stranded node escape.
func (p *Peer) stabilize() {
	p.chord.CheckPredecessor()
	if err := p.chord.Stabilize(); err != nil && p.gossip != nil {
		for _, s := range p.chord.Successors() {
			if !s.Equal(p.chord.Self()) {
				p.gossip.Suspect(s)
			}
		}
	}
	p.chord.FixFingers()
}

// refresh re-derives Lp, then re-homes every bucket whose level or
// gateway placement went stale (ring convergence, membership change),
// one reconcile step per firing. It returns the buckets moved.
func (p *Peer) refresh() int {
	p.refreshSize()
	p.InvalidateGatewayCache()
	return p.ReconcileStep()
}

// refreshSize re-estimates Nn from the density of the successor list
// unless the size is pinned (PrefixManager), and drops cached gateway
// resolutions when Lp moved: the refresh row's first step, and a
// joiner's last.
func (p *Peer) refreshSize() {
	if p.pm.pinned {
		return
	}
	if est := netsize.DensityEstimate(p.chord.Self(), p.chord.Successors()); est > 1 {
		if old, cur := p.pm.SetNetworkSize(est); cur != old {
			p.InvalidateGatewayCache()
		}
	}
}

// replicaGC closes a repair generation and opens the next. Drop runs
// before Begin: it judges the previous generation, whose probes have
// all had time to arrive. (The replica rows are no-ops at factor 1.)
func (p *Peer) replicaGC() {
	p.DropStaleReplicas()
	p.BeginReplicaSync()
}

// replicaSync promotes held units this node now owns and probes every
// owned unit's mirrors; the probe is also the liveness touch that keeps
// a mirror's copy out of the next collection.
func (p *Peer) replicaSync() {
	p.PromoteOwnedReplicas()
	p.SyncOwnedReplicas()
}

// Join is the one join path, a live node's and a simulated one's: enter
// the ring through bootstrap, then one gossip exchange (a joiner nobody
// has heard of cannot be declared dead if it crashes), then a size
// estimate.
func (p *Peer) Join(bootstrap chord.NodeRef) error {
	if err := p.chord.Join(bootstrap); err != nil {
		return err
	}
	if p.gossip != nil {
		p.gossip.SeedView(p.chord.Successors())
		p.gossip.Round()
	}
	p.refreshSize()
	return nil
}

// Shutdown is the one leave path, run after the last row has fired: one
// final window flush, so that events already acknowledged reach their
// gateways (a single attempt under the transport's call budget); every
// gateway bucket to the ring successor, which takes over this node's
// part of the ring, until a hand-off fails (the successor is gone); then
// the agent stops and the node leaves the ring.
func (p *Peer) Shutdown() error {
	p.FlushWindow()
	if succ := p.chord.Successor(); !succ.Equal(p.chord.Self()) {
		for _, key := range p.gw.bucketKeys() { // sorted
			if _, err := p.handOff(key, succ.Addr); err != nil {
				break
			}
		}
	}
	if p.gossip != nil {
		p.gossip.Stop()
	}
	return p.chord.Leave()
}
