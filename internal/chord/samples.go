package chord

import (
	"sort"

	"peertrack/internal/ids"
	"peertrack/internal/transport"
)

// RepairFromSamples merges externally supplied peer samples (from the
// gossip membership layer) into the successor list, ahead of a
// stabilize round. Candidates — the current successors plus the samples
// — are ranked by clockwise ring distance from this node and the
// nearest r are kept, so a sample that sits between this node and its
// current successor slots into place immediately instead of waiting for
// notify/stabilize propagation to discover it. It returns the number of
// entries that entered the list.
//
// Samples are not liveness-validated here: a stale sample costs the
// next Stabilize one failed call (it skips to the first live entry),
// while a fresh one repairs a partition of dead successors that
// stabilization alone can never escape — once every entry in the list
// is dead, Stabilize has no live peer to learn from and the node is
// stranded until some external source of peers arrives. Gossip is that
// source.
//
// The dead filter (nil to keep everything) is the other half of the
// escape: current successors the caller's failure detector has
// condemned are dropped from the candidate set. Without it a fully dead
// list keeps winning — its entries sit closer in ring distance than any
// live sample, so they would refill the r slots forever.
func (n *Node) RepairFromSamples(samples []NodeRef, dead func(transport.Addr) bool) int {
	headMoved := false
	n.lock()
	defer func() {
		n.mu.Unlock()
		if headMoved {
			n.ringChanged()
		}
	}()
	if n.left.Load() || len(samples) == 0 {
		return 0
	}

	cands := make([]NodeRef, 0, len(n.successors)+len(samples))
	for _, s := range n.successors {
		if dead != nil && dead(s.Addr) {
			continue
		}
		cands = append(cands, s)
	}
	for _, s := range samples {
		if s.IsZero() || s.Equal(n.self) {
			continue
		}
		if dead != nil && dead(s.Addr) {
			continue
		}
		cands = append(cands, s)
	}
	// Rank by clockwise distance from self; dedup by address keeping
	// ring order (equal addresses have equal IDs, so order within a
	// duplicate group is immaterial).
	sort.Slice(cands, func(i, j int) bool {
		di := ids.Distance(n.self.ID, cands[i].ID)
		dj := ids.Distance(n.self.ID, cands[j].ID)
		if c := di.Cmp(dj); c != 0 {
			return c < 0
		}
		return cands[i].Addr < cands[j].Addr
	})
	newList := make([]NodeRef, 0, n.cfg.SuccessorListLen)
	for _, c := range cands {
		if len(newList) >= n.cfg.SuccessorListLen {
			break
		}
		if len(newList) > 0 && newList[len(newList)-1].Equal(c) {
			continue
		}
		newList = append(newList, c)
	}
	if len(newList) == 0 {
		return 0
	}

	inserted := 0
	for _, c := range newList {
		known := false
		for _, s := range n.successors {
			if s.Equal(c) {
				known = true
				break
			}
		}
		if !known {
			inserted++
		}
	}
	headMoved = !n.successors[0].Equal(newList[0])
	n.successors = newList
	n.fingers.set(0, newList[0])
	if inserted > 0 {
		n.tel.sampleRepairs.Add(uint64(inserted))
	}
	return inserted
}
