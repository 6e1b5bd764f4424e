package chord

import (
	"errors"
	"fmt"

	"peertrack/internal/ids"
	"peertrack/internal/transport"
)

// LookupResult reports the outcome of a key lookup.
type LookupResult struct {
	// Node is the node responsible for the key: its ring successor.
	Node NodeRef
	// Hops is the number of remote routing RPCs spent (a key resolved
	// from local routing state costs 0).
	Hops int
}

// ErrLookupFailed is returned when routing cannot make progress (all
// candidate next hops are dead or a step limit was exceeded).
var ErrLookupFailed = errors.New("chord: lookup failed")

// Lookup finds the node responsible for key using iterative routing:
// starting from this node, repeatedly ask the current candidate for its
// closest preceding finger until the successor of the key is found.
// Takes O(log N) hops with high probability on a stabilized ring.
//
// Nodes that fail to answer are remembered for the duration of the
// lookup, and routing detours around them via successor lists, so
// lookups keep working with stale fingers during churn (the repair
// itself is stabilization's job).
func (n *Node) Lookup(key ids.ID) (LookupResult, error) {
	res, err := n.lookup(key)
	if err != nil {
		n.tel.lookupFails.Inc()
		return res, err
	}
	n.tel.lookups.Inc()
	n.tel.lookupHops.Observe(int64(res.Hops))
	return res, nil
}

func (n *Node) lookup(key ids.ID) (LookupResult, error) {
	res, _, err := n.lookupVia(key)
	return res, err
}

// lookupVia is lookup plus provenance: it also returns the last live
// hop that named the owner (zero when the answer came from local
// routing state alone). The via node's successor list begins at the
// owner, which is what replica-set queries fall back on when the owner
// itself is unreachable.
func (n *Node) lookupVia(key ids.ID) (LookupResult, NodeRef, error) {
	if n.left.Load() {
		return LookupResult{}, NodeRef{}, ErrLeft
	}
	// Seed from the local routing state (free: no RPC); fast path: we own
	// the key.
	local, owned := n.route(key)
	if owned {
		return LookupResult{Node: n.self, Hops: 0}, NodeRef{}, nil
	}

	hops := 0
	// Hops found dead on this lookup. Written only when a call fails, so
	// a healthy lookup never allocates it; reads of the nil map are false.
	var dead map[transport.Addr]bool
	markDead := func(a transport.Addr) {
		if dead == nil {
			dead = make(map[transport.Addr]bool)
		}
		dead[a] = true
	}
	cur, done := local.Node, local.Done
	if cur.Equal(n.self) {
		done = true // degenerate single-node ring
	}
	if done {
		return LookupResult{Node: cur, Hops: hops}, NodeRef{}, nil
	}
	// Every hop is asked the same question: box it once, not per hop.
	var req any = closestPrecedingReq{Key: key}
	for step := 0; step < maxLookupSteps; step++ {
		resp, err := n.call(cur, req)
		if err != nil {
			// Current hop is dead: detour from local routing state.
			markDead(cur.Addr)
			next, derr := n.detour(key, dead)
			if derr != nil {
				return LookupResult{}, NodeRef{}, fmt.Errorf("%w: %v", ErrLookupFailed, err)
			}
			cur = next
			hops++
			continue
		}
		hops++
		cp := resp.(closestPrecedingResp)
		switch {
		case cp.Done:
			// The owner is returned even when it is known-dead: routing
			// succeeded in naming the responsible node, and failover
			// callers (LookupSet) need it plus the via hop to reach the
			// key's replica set. Callers that need the owner alive find
			// out on their next call to it.
			return LookupResult{Node: cp.Node, Hops: hops}, cur, nil
		case cp.Node.Equal(cur):
			// No progress: cur believes its successor is responsible.
			return LookupResult{Node: cp.Node, Hops: hops}, cur, nil
		case dead[cp.Node.Addr]:
			// cur handed us a node we already know is dead (stale
			// finger). Step along cur's successor list instead, which
			// guarantees forward progress on the ring.
			st, serr := n.call(cur, getStateReq{})
			hops++
			if serr != nil {
				markDead(cur.Addr)
				next, derr := n.detour(key, dead)
				if derr != nil {
					return LookupResult{}, NodeRef{}, fmt.Errorf("%w: %v", ErrLookupFailed, serr)
				}
				cur = next
				continue
			}
			succs := st.(getStateResp).Successors
			// The list may already cover the key: walking it in ring
			// order, the first entry s with key ∈ (prev, s] is the owner.
			// This is the only way to terminate when both the owner and
			// the owner's predecessor are dead — neither can claim the
			// key, so no closestPreceding answer ever says Done.
			prev := cur
			for _, s := range succs {
				if ids.BetweenRightIncl(&key, &prev.ID, &s.ID) {
					return LookupResult{Node: s, Hops: hops}, cur, nil
				}
				prev = s
			}
			moved := false
			for _, s := range succs {
				if !dead[s.Addr] && !s.Equal(cur) {
					cur = s
					moved = true
					break
				}
			}
			if !moved {
				return LookupResult{}, NodeRef{}, fmt.Errorf("%w: no live successor past %s", ErrLookupFailed, cur.Addr)
			}
		default:
			cur = cp.Node
		}
	}
	return LookupResult{}, NodeRef{}, fmt.Errorf("%w: exceeded %d steps for key %s", ErrLookupFailed, maxLookupSteps, key.Short())
}

// LookupSet finds up to want distinct candidate holders of key in
// deterministic ring order: the node responsible for the key first,
// then its ring successors — exactly the replica set of a k-successor
// replication scheme. The owner is included even when it is currently
// unreachable (callers skip it during failover); its successor list is
// then taken from the last live hop of the lookup path, whose list
// begins at the owner, so failover still learns which nodes mirror the
// key.
func (n *Node) LookupSet(key ids.ID, want int) ([]NodeRef, error) {
	if want < 1 {
		want = 1
	}
	res, via, err := n.lookupVia(key)
	if err != nil {
		return nil, err
	}
	owner := res.Node
	set := make([]NodeRef, 0, want)
	add := func(r NodeRef) {
		if r.IsZero() || len(set) >= want {
			return
		}
		for _, have := range set {
			if have.Addr == r.Addr {
				return
			}
		}
		set = append(set, r)
	}
	add(owner)
	// Extend with the owner's successor list. When the answer came from
	// local routing state (via is zero), this node's own successor list
	// already starts at the owner, so it is the authoritative extension;
	// the same holds for the via node when the owner does not answer.
	switch {
	case len(set) >= want:
	case owner.Equal(n.self) || via.IsZero():
		for _, s := range n.Successors() {
			add(s)
		}
	default:
		if st, err := n.call(owner, getStateReq{}); err == nil {
			for _, s := range st.(getStateResp).Successors {
				add(s)
			}
			break
		}
		if st, err := n.call(via, getStateReq{}); err == nil {
			// via may precede the owner by several positions (it named
			// the owner from deep in its successor list when the owner's
			// immediate predecessor was also dead). Entries up to and
			// including the owner are not replicas of the key and must
			// not crowd real replicas out of the set.
			succs := st.(getStateResp).Successors
			start := 0
			for i, s := range succs {
				if s.Addr == owner.Addr {
					start = i + 1
					break
				}
			}
			for _, s := range succs[start:] {
				add(s)
			}
		}
	}
	// Walk the ring forward for any copies still missing: the owner of
	// lastID+1 is the next ring position, alive or dead (lookups name
	// dead owners too). This is the only source of the owner's own
	// successors when the owner sits at the very end of every reachable
	// successor list — e.g. a dead owner whose predecessor is also dead.
	for len(set) < want {
		next, _, err := n.lookupVia(set[len(set)-1].ID.AddPow2(0))
		if err != nil || next.Node.IsZero() {
			break
		}
		before := len(set)
		add(next.Node)
		if len(set) == before {
			break // wrapped around or duplicate: no progress
		}
	}
	return set, nil
}

// detour picks an alternative hop when the current one is unreachable:
// the closest live candidate preceding key from the local successor
// list and fingers, excluding known-dead nodes.
func (n *Node) detour(key ids.ID, dead map[transport.Addr]bool) (NodeRef, error) {
	n.mu.RLock()
	cands := make([]NodeRef, 0, len(n.successors)+len(n.fingers.ref))
	n.fingers.descend(func(f NodeRef) bool {
		cands = append(cands, f)
		return true
	})
	cands = append(cands, n.successors...)
	n.mu.RUnlock()

	var best NodeRef
	for _, c := range cands {
		if dead[c.Addr] || c.Equal(n.self) {
			continue
		}
		if !ids.Between(&c.ID, &n.self.ID, &key) {
			continue
		}
		if best.IsZero() || ids.Between(&best.ID, &n.self.ID, &c.ID) {
			// c is closer to key than best (best precedes c).
			best = c
		}
	}
	if !best.IsZero() && n.Ping(best) {
		return best, nil
	}
	// Fall back to any live candidate at all.
	for _, c := range cands {
		if dead[c.Addr] || c.Equal(n.self) || c.Equal(best) {
			continue
		}
		if n.Ping(c) {
			return c, nil
		}
	}
	return NodeRef{}, ErrLookupFailed
}

// NextHop returns the best next routing hop for key from this node's
// local state, and whether that hop is already the node responsible for
// the key. It performs no RPCs; recursive-routing layers build on it.
func (n *Node) NextHop(key ids.ID) (NodeRef, bool) {
	r, owned := n.route(key)
	if owned || r.Node.Equal(n.self) {
		return n.self, true
	}
	return r.Node, r.Done
}

// route is one routing step from local state under one read hold: the
// closest-preceding answer for key, and whether this node owns it.
func (n *Node) route(key ids.ID) (closestPrecedingResp, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	r, _ := n.closestPreceding(key)
	return r, n.owns(key)
}
