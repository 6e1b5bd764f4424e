package core

import (
	"sort"

	"peertrack/internal/gossip"
	"peertrack/internal/moods"
	"peertrack/internal/overlay"
)

// This file wires the gossip membership layer into the traceability
// core. The agent rides on the peer's transport address: its exchange
// and probe messages are served ahead of the traceability protocol in
// handleRPC, and its dead verdicts feed the gateway-resolution cache —
// a peer that learns a gateway crashed evicts every cached resolution
// pointing at it, so the next flush re-resolves through the (repaired)
// ring instead of burning a round trip on a dead address and
// re-buffering the window. That re-resolution is what re-delegates the
// group's indexing duty to the crashed gateway's ring successor.

// AttachGossip installs a membership agent on this peer. Wire before
// traffic starts (the handle is read without a lock, like telemetry).
func (p *Peer) AttachGossip(a *gossip.Agent) {
	p.gossip = a
	if a != nil {
		a.SetOnDead(p.onGossipDead)
	}
}

// Gossip returns the attached membership agent (nil when detached).
func (p *Peer) Gossip() *gossip.Agent { return p.gossip }

// onGossipDead is the failure detector's dead-verdict callback: every
// cached gateway resolution pointing at the dead address is evicted,
// and — when replication is on — every replica held for it becomes a
// promotion candidate. (While the verdict stands, DropStaleReplicas
// leaves the rest alone: the agent's IsDead is the only dead list.)
func (p *Peer) onGossipDead(ref overlay.NodeRef) {
	if evicted := p.gwCache.removeNode(p.names.ref(moods.NodeName(ref.Addr))); evicted > 0 {
		p.tel.gwDeadEvictions.Add(uint64(evicted))
	}
	if p.mirrors() <= 0 {
		return
	}
	for _, h := range p.repl.HeldFor(ref.Addr) {
		p.maybePromoteHeld(h) // self-gates on ring ownership
	}
}

// EnableGossip attaches a membership agent to every current peer,
// seeded from its overlay neighbours, and arranges for peers added by
// Grow to be attached too. Per-agent RNG seeds derive from the network
// seed and the peer address, so runs are deterministic.
func (nw *Network) EnableGossip(cfg gossip.Config) {
	nw.gossipOn = true
	nw.gossipCfg = cfg
	for _, p := range nw.peers {
		nw.attachGossipPeer(p)
	}
}

// attachGossipPeer builds, instruments, and seeds one peer's agent.
func (nw *Network) attachGossipPeer(p *Peer) {
	cfg := nw.gossipCfg
	cfg.Seed = gossip.SeedFor(nw.cfg.Seed, p.Addr())
	a := gossip.New(nw.Transport, p.Node().Self(), cfg)
	a.SetTelemetry(nw.Telemetry)
	p.AttachGossip(a)
	a.SeedView(p.Node().Neighbors())
}

// GossipRound runs one membership round on every peer, in ring order —
// the deterministic schedule tests and experiments drive directly; the
// maintenance table's gossip-round row is its periodic form.
func (nw *Network) GossipRound() {
	for _, p := range nw.peers {
		if g := p.Gossip(); g != nil {
			g.Round()
		}
	}
}

// GossipSizeEstimate returns the median of the per-peer min-wise
// network-size estimates (0 while agents are unconverged or detached).
// The median is robust to the handful of peers whose samplers have not
// yet mixed, which is what makes it a drop-in cross-check for the
// netsize estimators feeding adaptive Lp.
func (nw *Network) GossipSizeEstimate() float64 {
	ests := make([]float64, 0, len(nw.peers))
	for _, p := range nw.peers {
		if g := p.Gossip(); g != nil {
			if e := g.Estimate(); e > 0 {
				ests = append(ests, e)
			}
		}
	}
	if len(ests) == 0 {
		return 0
	}
	sort.Float64s(ests)
	return ests[len(ests)/2]
}
