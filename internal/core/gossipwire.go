package core

import (
	"peertrack/internal/moods"
	"peertrack/internal/overlay"
)

// This file wires the gossip membership layer into the traceability
// core. NewPeer builds the agent, which rides on the peer's transport
// address: its exchange and probe messages are served ahead of the
// traceability protocol in handleRPC, and its dead verdicts feed the
// gateway-resolution cache — a peer that learns a gateway crashed evicts
// every cached resolution pointing at it, so the next flush re-resolves
// through the (repaired) ring instead of burning a round trip on a dead
// address and re-buffering the window. That re-resolution is what
// re-delegates the group's indexing duty to the crashed gateway's ring
// successor.

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
