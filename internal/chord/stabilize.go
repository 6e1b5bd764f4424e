package chord

import (
	"fmt"

	"peertrack/internal/ids"
)

// Join enters the ring that bootstrap belongs to. The node finds its
// successor through bootstrap and relies on subsequent Stabilize rounds
// to converge predecessor and finger state, exactly as in the Chord
// paper. It runs the first of those rounds itself and returns its error:
// a successor that cannot be reached is a join to try again.
func (n *Node) Join(bootstrap NodeRef) error {
	if bootstrap.Equal(n.self) {
		return fmt.Errorf("chord: cannot join through self")
	}
	resp, err := n.call(bootstrap, closestPrecedingReq{Key: n.self.ID})
	if err != nil {
		return fmt.Errorf("chord: join via %s: %w", bootstrap.Addr, err)
	}
	cur := resp.(closestPrecedingResp)
	// Iterate to the true successor of our id.
	for !cur.Done {
		r, err := n.call(cur.Node, closestPrecedingReq{Key: n.self.ID})
		if err != nil {
			return fmt.Errorf("chord: join routing via %s: %w", cur.Node.Addr, err)
		}
		next := r.(closestPrecedingResp)
		if !next.Done && next.Node.Equal(cur.Node) {
			next.Done = true
		}
		cur = next
	}
	succ := cur.Node
	if succ.Equal(n.self) || succ.IsZero() {
		// The lookup for our own ID resolved to us: a previous
		// incarnation of this identity is still in the ring (a node
		// restarting with the same address rejoins under the same ID,
		// and the survivors never evicted it). Their entries for us are
		// valid again now that we are back — only our own successor
		// pointer is missing. Adopt the bootstrap as a provisional
		// successor; each stabilize round then walks the pointer toward
		// the true successor via the predecessor-adoption rule.
		succ = bootstrap
	}
	n.lock()
	n.pred = NodeRef{}
	n.successors = []NodeRef{succ}
	n.mu.Unlock()
	n.ringChanged()
	// Announce ourselves immediately so lookups can find us without
	// waiting a full stabilization period.
	if err := n.Stabilize(); err != nil {
		return fmt.Errorf("chord: join: announce to %s: %w", succ.Addr, err)
	}
	return nil
}

// Stabilize runs one round of Chord's stabilization: learn the
// successor's predecessor, adopt it if it sits between us, refresh the
// successor list, and notify the successor of our existence. Returns an
// error only when no successor is reachable at all.
func (n *Node) Stabilize() error {
	if n.left.Load() {
		return ErrLeft
	}
	n.mu.RLock()
	succs := append([]NodeRef(nil), n.successors...)
	n.mu.RUnlock()

	var state getStateResp
	var live NodeRef
	found := false
	for _, s := range succs {
		if s.Equal(n.self) {
			// Successor is self (fresh ring seed or collapsed list). Use
			// local state: if a predecessor has notified us, the standard
			// stabilize step below adopts it as our successor, forming
			// the two-node ring exactly as in the Chord paper.
			n.mu.RLock()
			pred := n.pred
			n.mu.RUnlock()
			state = getStateResp{Self: n.self, Successors: []NodeRef{n.self}, Pred: pred}
			live, found = n.self, true
			break
		}
		resp, err := n.call(s, getStateReq{})
		if err == nil {
			state = resp.(getStateResp)
			live, found = s, true
			break
		}
	}
	if !found || !live.Equal(succs[0]) {
		n.failedOverAt.Store(n.ringChanges.Load() + 1)
	}
	if !found {
		return fmt.Errorf("chord: no live successor among %d candidates", len(succs))
	}

	succ := live
	// While the successor's predecessor sits between us and it, that node
	// is our better successor. The chain is followed to its end within
	// the round — a join burst through one bootstrap leaves it n long —
	// and ends at the first link that does not answer.
	for step := 0; step < ids.Bits; step++ {
		p := state.Pred
		if p.IsZero() || !ids.Between(&p.ID, &n.self.ID, &succ.ID) {
			break
		}
		resp, err := n.call(p, getStateReq{})
		if err != nil {
			break
		}
		state, succ = resp.(getStateResp), p
	}

	// Rebuild the successor list: succ followed by its list, trimmed, and
	// cut where that list comes back round to this node. Past that point
	// a ring of r nodes or fewer repeats itself, and a departed node
	// there would go round the ring in everybody's list forever.
	newList := make([]NodeRef, 0, n.cfg.SuccessorListLen)
	newList = append(newList, succ)
	for _, s := range state.Successors {
		if len(newList) >= n.cfg.SuccessorListLen || s.Equal(n.self) {
			break
		}
		if s.Equal(succ) {
			continue
		}
		dup := false
		for _, t := range newList {
			if t.Equal(s) {
				dup = true
				break
			}
		}
		if !dup {
			newList = append(newList, s)
		}
	}

	n.lock()
	// A new head past dead candidates is a repair, not a ring change.
	spliced := live.Equal(succs[0]) && !n.successors[0].Equal(succ)
	n.successors = newList
	n.fingers.set(0, succ) // finger[0] is by definition the successor
	n.mu.Unlock()
	if spliced {
		n.ringChanged()
	}

	// The chain ended on a node behind us: whom our successor had for a
	// predecessor before we came. A node without one takes it as its first
	// candidate, so that the next joiner's walk passes through this node
	// and not around it (CheckPredecessor drops it if it is dead).
	if p := state.Pred; !p.IsZero() && !ids.Between(&p.ID, &n.self.ID, &succ.ID) && n.Predecessor().IsZero() {
		n.notify(p)
	}
	if !succ.Equal(n.self) {
		n.call(succ, notifyReq{Candidate: n.self}) // best effort
	}
	n.tel.stabilizes.Inc()
	return nil
}

// FixFingers refreshes one distinct finger per call. Every finger whose
// start lies in (self, successor] is the successor and is set without a
// lookup; the cycle runs over the rest, and a lookup's answer also fills
// the fingers above it whose starts it covers, so one pass over the
// table costs about log2 N calls of O(log N) RPCs each, not ids.Bits.
func (n *Node) FixFingers() error {
	n.lock()
	if n.left.Load() {
		n.mu.Unlock()
		return ErrLeft
	}
	succ := n.successors[0]
	i := n.covers(succ)
	n.fingers.setRange(0, i, succ)
	if n.nextFinger > i && n.nextFinger < ids.Bits {
		i = n.nextFinger
	}
	n.nextFinger = i + 1
	n.mu.Unlock()
	if i == ids.Bits {
		return nil // the successor is every finger: a ring of one or two
	}

	res, err := n.Lookup(n.self.ID.AddPow2(i))
	if err != nil {
		return err
	}
	n.lock()
	repaired := !n.fingers.get(i).Equal(res.Node)
	end := max(i+1, n.covers(res.Node))
	n.fingers.setRange(i, end, res.Node)
	n.nextFinger = end
	n.mu.Unlock()
	if repaired {
		n.tel.repairs.Inc()
	}
	return nil
}

// covers returns how many finger starts self+2^j lie in (self, r]: the
// bit length of the clockwise distance to r.
func (n *Node) covers(r NodeRef) int {
	return ids.Bits - ids.Distance(n.self.ID, r.ID).LeadingZeros()
}

// FixAllFingers refreshes the whole finger table: one pass of the
// FixFingers cycle from its start. Used after joins in tests and
// experiment setup.
func (n *Node) FixAllFingers() error {
	n.lock()
	n.nextFinger = ids.Bits
	n.mu.Unlock()
	for done := false; !done; {
		if err := n.FixFingers(); err != nil {
			return err
		}
		n.mu.RLock()
		done = n.nextFinger >= ids.Bits
		n.mu.RUnlock()
	}
	return nil
}

// CheckPredecessor clears a dead predecessor so notify can replace it.
func (n *Node) CheckPredecessor() {
	n.mu.RLock()
	p := n.pred
	n.mu.RUnlock()
	if p.IsZero() {
		return
	}
	if !n.Ping(p) {
		n.lock()
		if n.pred.Equal(p) {
			n.pred = NodeRef{}
		}
		n.mu.Unlock()
	}
}

// Leave departs the ring voluntarily: neighbours are relinked and the
// node stops serving RPCs. It migrates no keys: the application layer
// hands them over first (core.Peer.Shutdown gives every gateway
// bucket to the successor).
func (n *Node) Leave() error {
	n.lock()
	if n.left.Load() {
		n.mu.Unlock()
		return ErrLeft
	}
	n.left.Store(true)
	pred := n.pred
	succs := append([]NodeRef(nil), n.successors...)
	n.mu.Unlock()

	succ := succs[0]
	if !succ.Equal(n.self) {
		// Tell the successor to adopt our predecessor...
		n.net.Call(n.self.Addr, succ.Addr, leaveReq{Leaver: n.self, Pred: pred})
	}
	if !pred.IsZero() && !pred.Equal(n.self) {
		// ...and the predecessor to adopt our successor list.
		n.net.Call(n.self.Addr, pred.Addr, leaveReq{Leaver: n.self, Successors: succs})
	}
	n.net.Unregister(n.self.Addr)
	return nil
}

// Left reports whether the node has departed.
func (n *Node) Left() bool { return n.left.Load() }
