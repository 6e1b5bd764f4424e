package kademlia

import (
	"peertrack/internal/ids"
	"peertrack/internal/overlay"
)

// WireStaticTables fills every node's routing table from the global
// membership without protocol traffic: per bucket, the k XOR-closest
// members. Experiments use it so message counts reflect only the
// traceability protocol.
func WireStaticTables(nodes []*Node) {
	refs := make([]overlay.NodeRef, len(nodes))
	for i, n := range nodes {
		refs[i] = n.Self()
	}
	for _, n := range nodes {
		t := newTable(n.self)
		// Group contacts by bucket, keep the closest K of each.
		byBucket := map[int][]overlay.NodeRef{}
		for _, r := range refs {
			if r.Addr == n.self.Addr {
				continue
			}
			byBucket[t.bucketIndex(r.ID)] = append(byBucket[t.bucketIndex(r.ID)], r)
		}
		for idx, members := range byBucket {
			sortByDistance(n.self.ID, members)
			if len(members) > K {
				members = members[:K]
			}
			t.buckets[idx] = members
		}
		n.table = t
	}
}

// ClosestOf returns the reference among refs that is XOR-closest to
// key — the ground-truth ownership oracle for tests.
func ClosestOf(refs []overlay.NodeRef, key ids.ID) overlay.NodeRef {
	best := refs[0]
	for _, r := range refs[1:] {
		if xorLess(key, r.ID, best.ID) {
			best = r
		}
	}
	return best
}
