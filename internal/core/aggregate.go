package core

import (
	"sort"

	"peertrack/internal/moods"
)

// Inventory returns the objects currently present at this node, sorted
// for determinism. The IOP data each node already keeps for trace
// queries doubles as a live inventory: an object is present at a node
// exactly when its newest visit there has no outbound link yet (o.to is
// unset) — the "which objects are at node X now?" class of questions
// the related-work section contrasts with single-instance queries,
// answered by the owning node from its own repository.
func (p *Peer) Inventory() []moods.ObjectID {
	p.repo.mu.Lock()
	defer p.repo.mu.Unlock()
	out := make([]moods.ObjectID, 0, len(p.repo.visits))
	for obj, slot := range p.repo.visits {
		if p.repo.latest(slot).To == 0 {
			out = append(out, obj)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
