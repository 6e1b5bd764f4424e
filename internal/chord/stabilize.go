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
	n.mu.Lock()
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
	n.mu.RLock()
	if n.left {
		n.mu.RUnlock()
		return ErrLeft
	}
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
	// If the successor's predecessor sits between us and it, that node
	// is our better successor.
	if p := state.Pred; !p.IsZero() && ids.Between(p.ID, n.self.ID, succ.ID) {
		if resp, err := n.call(p, getStateReq{}); err == nil {
			state = resp.(getStateResp)
			succ = p
		}
	}

	// Rebuild the successor list: succ followed by its list, trimmed.
	newList := make([]NodeRef, 0, n.cfg.SuccessorListLen)
	newList = append(newList, succ)
	for _, s := range state.Successors {
		if len(newList) >= n.cfg.SuccessorListLen {
			break
		}
		if s.Equal(n.self) || s.Equal(succ) {
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

	n.mu.Lock()
	// A new head past dead candidates is a repair, not a ring change.
	spliced := live.Equal(succs[0]) && !n.successors[0].Equal(succ)
	n.successors = newList
	n.fingers.set(0, succ) // finger[0] is by definition the successor
	n.mu.Unlock()
	if spliced {
		n.ringChanged()
	}

	if !succ.Equal(n.self) {
		n.call(succ, notifyReq{Candidate: n.self}) // best effort
	}
	n.tel.stabilizes.Inc()
	return nil
}

// FixFingers refreshes one finger table entry per call, cycling through
// the table as Chord prescribes. It uses local iterative lookup, so each
// call costs O(log N) RPCs.
func (n *Node) FixFingers() error {
	n.mu.Lock()
	if n.left {
		n.mu.Unlock()
		return ErrLeft
	}
	i := n.nextFinger
	n.nextFinger = (n.nextFinger + 1) % ids.Bits
	n.mu.Unlock()

	start := n.self.ID.AddPow2(i)
	res, err := n.Lookup(start)
	if err != nil {
		return err
	}
	n.mu.Lock()
	repaired := !n.fingers.get(i).Equal(res.Node)
	n.fingers.set(i, res.Node)
	n.mu.Unlock()
	if repaired {
		n.tel.repairs.Inc()
	}
	return nil
}

// FixAllFingers refreshes the whole finger table (Bits lookups). Used
// after joins in tests and experiment setup.
func (n *Node) FixAllFingers() error {
	for i := 0; i < ids.Bits; i++ {
		if err := n.FixFingers(); err != nil {
			return err
		}
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
		n.mu.Lock()
		if n.pred.Equal(p) {
			n.pred = NodeRef{}
		}
		n.mu.Unlock()
	}
}

// Leave departs the ring voluntarily: neighbours are relinked and the
// node stops serving RPCs. Key migration must be done by the application
// layer before calling Leave.
func (n *Node) Leave() error {
	n.mu.Lock()
	if n.left {
		n.mu.Unlock()
		return ErrLeft
	}
	n.left = true
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
func (n *Node) Left() bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.left
}
