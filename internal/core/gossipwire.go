package core

import (
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
// seeded from its overlay neighbours, and to every peer Grow adds (its
// join seeds it). Per-agent RNG seeds derive from the network seed and
// the peer address, so runs are deterministic.
func (nw *Network) EnableGossip(cfg gossip.Config) {
	attach := func(p *Peer) {
		c := cfg
		c.Seed = gossip.SeedFor(nw.cfg.Seed, p.Addr())
		a := gossip.New(nw.Transport, p.Node().Self(), c)
		a.SetTelemetry(nw.Telemetry)
		p.AttachGossip(a)
	}
	nw.joining = append(nw.joining, attach)
	for _, p := range nw.peers {
		attach(p)
		p.gossip.SeedView(p.Node().Neighbors())
	}
}
