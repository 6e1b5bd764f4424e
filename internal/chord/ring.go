package chord

import (
	"fmt"
	"sort"

	"peertrack/internal/ids"
	"peertrack/internal/transport"
)

// BuildStaticRing constructs a fully converged ring by computing every
// node's predecessor, successor list and finger table directly, without
// protocol traffic. Experiments use it so that ring construction does
// not pollute message counts; the resulting state is exactly what
// protocol-based construction converges to. Returns the nodes sorted by
// ring identifier.
func BuildStaticRing(net transport.Network, addrs []transport.Addr, cfg Config) ([]*Node, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("chord: empty ring")
	}
	nodes := make([]*Node, 0, len(addrs))
	for _, a := range addrs {
		n, err := New(net, a, cfg)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, n)
	}
	WireStaticRing(nodes)
	return nodes, nil
}

// WireStaticRing sets exact routing state on the given nodes and sorts
// them by identifier in place.
//
// Successor lists are sub-sliced out of one shared arena (one
// allocation for the whole ring instead of one per node), and finger
// tables are built run-length encoded with a monotone scan: the finger
// starts self+2^f increase with f and wrap past the ring top at most
// once, so a single advancing pointer over the sorted refs replaces
// ids.Bits binary searches per node. Both matter at XL ring sizes.
func WireStaticRing(nodes []*Node) {
	SortByID(nodes)
	m := len(nodes)
	refs := make([]NodeRef, m)
	for i, n := range nodes {
		refs[i] = n.Self()
	}
	var arena []NodeRef
	if m > 1 {
		sl := nodes[0].cfg.SuccessorListLen
		if sl > m-1 {
			sl = m - 1
		}
		arena = make([]NodeRef, 0, m*sl)
	}
	// Scratch run buffers reused across nodes; each node copies out an
	// exactly-sized table.
	scratchLo := make([]uint8, 0, 64)
	scratchRef := make([]NodeRef, 0, 64)
	for i, n := range nodes {
		n.lock()
		n.pred = refs[(i-1+m)%m]
		if m == 1 {
			n.pred = NodeRef{}
		}
		sl := n.cfg.SuccessorListLen
		if sl > m-1 && m > 1 {
			sl = m - 1
		}
		if m == 1 {
			n.successors = []NodeRef{n.self}
		} else {
			base := len(arena)
			for k := 1; k <= sl; k++ {
				arena = append(arena, refs[(i+k)%m])
			}
			n.successors = arena[base:len(arena):len(arena)]
		}
		scratchLo, scratchRef = scratchLo[:0], scratchRef[:0]
		prev := n.self.ID.AddPow2(0)
		// Raw insertion point (may be m, meaning wrap): the monotone
		// scan below applies the wrap itself.
		j := sort.Search(m, func(k int) bool { return refs[k].ID.Cmp(prev) >= 0 })
		for f := 0; f < ids.Bits; f++ {
			start := n.self.ID.AddPow2(f)
			if start.Cmp(prev) < 0 {
				j = 0 // wrapped past the ring top; restart at the smallest id
			}
			for j < m && refs[j].ID.Cmp(start) < 0 {
				j++
			}
			idx := j
			if idx == m {
				idx = 0
			}
			r := refs[idx]
			if len(scratchRef) == 0 || !scratchRef[len(scratchRef)-1].Equal(r) {
				scratchLo = append(scratchLo, uint8(f))
				scratchRef = append(scratchRef, r)
			}
			prev = start
		}
		n.fingers.replace(scratchLo, scratchRef)
		n.mu.Unlock()
	}
}

// successorIndex returns the index in refs (sorted by ID) of the
// successor of key: the first node whose ID >= key, wrapping to 0.
func successorIndex(refs []NodeRef, key ids.ID) int {
	i := sort.Search(len(refs), func(i int) bool {
		return refs[i].ID.Cmp(key) >= 0
	})
	if i == len(refs) {
		return 0
	}
	return i
}

// SuccessorOf returns the reference among refs responsible for key.
// refs must be sorted by ID. This is the ground-truth ownership oracle
// used by tests and by experiment verification.
func SuccessorOf(refs []NodeRef, key ids.ID) NodeRef {
	return refs[successorIndex(refs, key)]
}

// SortByID orders nodes by ring identifier.
func SortByID(nodes []*Node) {
	sort.Slice(nodes, func(i, j int) bool {
		return nodes[i].ID().Less(nodes[j].ID())
	})
}

// SortRefs orders node references by ring identifier.
func SortRefs(refs []NodeRef) {
	sort.Slice(refs, func(i, j int) bool {
		return refs[i].ID.Less(refs[j].ID)
	})
}

// StabilizeAll runs the given number of full stabilization rounds over
// all nodes.
func StabilizeAll(nodes []*Node, rounds int) error {
	for r := 0; r < rounds; r++ {
		for _, n := range nodes {
			if n.Left() {
				continue
			}
			if err := n.Stabilize(); err != nil {
				return fmt.Errorf("chord: stabilize %s: %w", n.Addr(), err)
			}
		}
	}
	return nil
}

// Converged verifies that every node's successor and predecessor agree
// with the sorted ring order; used by tests.
func Converged(nodes []*Node) bool {
	live := make([]*Node, 0, len(nodes))
	for _, n := range nodes {
		if !n.Left() {
			live = append(live, n)
		}
	}
	if len(live) == 0 {
		return true
	}
	sorted := append([]*Node(nil), live...)
	SortByID(sorted)
	m := len(sorted)
	for i, n := range sorted {
		wantSucc := sorted[(i+1)%m].Self()
		wantPred := sorted[(i-1+m)%m].Self()
		if m == 1 {
			if !n.Successor().Equal(n.Self()) {
				return false
			}
			continue
		}
		if !n.Successor().Equal(wantSucc) {
			return false
		}
		if !n.Predecessor().Equal(wantPred) {
			return false
		}
	}
	return true
}
