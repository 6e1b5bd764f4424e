package invariants

import (
	"fmt"
	"sort"

	"peertrack/internal/core"
	"peertrack/internal/ids"
	"peertrack/internal/moods"
	"peertrack/internal/transport"
)

// CheckReplicaAgreement verifies the k-successor replication contract
// at a quiesced checkpoint: every peer's index buckets and IOP
// repository are mirrored, byte-for-byte, on its k−1 ring successors,
// and no live mirror holds a copy that disagrees with its primary. The
// network must have completed a repair round (Network.SyncReplicas)
// since the last membership or index change; mid-window the mirrors
// may legitimately trail the primary by in-flight deltas.
//
// Entry agreement ignores the Indexed timestamp: it is local FIFO
// bookkeeping of the gateway, not tracked data, and a promoted bucket
// legitimately re-stamps it.
//
// Replicas recorded against owners that are no longer live peers are
// skipped: they are garbage awaiting the stale-drop pass (or pinned by
// a gossip death verdict so failover can still read them), and the
// ring-successor read path never consults copies outside the live
// owner's mirror set.
//
// Check runs it last; it is exported for callers that want this
// contract alone.
func CheckReplicaAgreement(peers []*core.Peer) []Violation {
	if len(peers) == 0 || peers[0].ReplicationFactor() <= 1 {
		return nil
	}
	c := &replicaChecker{
		dumps:   make(map[transport.Addr][]core.BucketSnapshot, len(peers)),
		replica: make(map[transport.Addr]map[ids.PrefixKey]*core.BucketSnapshot, len(peers)),
	}
	// Ring order by node identifier: the independent oracle for every
	// peer's expected mirror set.
	ring := append([]*core.Peer(nil), peers...)
	sort.Slice(ring, func(i, j int) bool {
		return ring[i].Node().Self().ID.Less(ring[j].Node().Self().ID)
	})
	c.ring = ring
	for _, p := range ring {
		addr := p.Addr()
		c.dumps[addr] = p.DumpIndex()
		byKey := make(map[ids.PrefixKey]*core.BucketSnapshot)
		reps := p.DumpReplicas()
		for i := range reps {
			byKey[reps[i].Key] = &reps[i]
		}
		c.replica[addr] = byKey
	}
	for i, p := range ring {
		mirrors := c.mirrorsOf(i, p.ReplicationFactor()-1)
		c.checkIndexAgreement(p, mirrors)
		c.checkRepoAgreement(p, mirrors)
	}
	return c.out
}

type replicaChecker struct {
	ring    []*core.Peer
	dumps   map[transport.Addr][]core.BucketSnapshot
	replica map[transport.Addr]map[ids.PrefixKey]*core.BucketSnapshot
	out     []Violation
}

func (c *replicaChecker) add(inv string, node moods.NodeName, obj moods.ObjectID, format string, args ...any) {
	if len(c.out) >= maxViolations {
		return
	}
	c.out = append(c.out, Violation{Invariant: inv, Node: node, Object: obj, Detail: fmt.Sprintf(format, args...)})
}

// mirrorsOf returns the next want live peers after ring index i — the
// expected mirror set of ring[i].
func (c *replicaChecker) mirrorsOf(i, want int) []*core.Peer {
	if want > len(c.ring)-1 {
		want = len(c.ring) - 1
	}
	out := make([]*core.Peer, 0, want)
	for j := 1; j <= len(c.ring)-1 && len(out) < want; j++ {
		out = append(out, c.ring[(i+j)%len(c.ring)])
	}
	return out
}

// checkIndexAgreement compares every non-empty primary bucket of p
// against the copy each expected mirror holds.
func (c *replicaChecker) checkIndexAgreement(p *core.Peer, mirrors []*core.Peer) {
	for _, b := range c.dumps[p.Addr()] {
		if len(b.Entries) == 0 {
			continue // empty buckets need no copies
		}
		for _, m := range mirrors {
			rb := c.replica[m.Addr()][b.Key]
			if rb == nil {
				c.add("replica-missing", m.Name(), "", "no copy of %s's bucket %s (%d entries)", p.Name(), b.Key, len(b.Entries))
				continue
			}
			if rb.Delegated != b.Delegated {
				c.add("replica-agreement", m.Name(), "", "bucket %s delegated=%v, primary %s says %v", b.Key, rb.Delegated, p.Name(), b.Delegated)
			}
			c.compareEntries(p, m, b, rb)
		}
	}
}

// compareEntries diffs two sorted entry slices (both dumps sort by
// hashed id).
func (c *replicaChecker) compareEntries(p, m *core.Peer, b core.BucketSnapshot, rb *core.BucketSnapshot) {
	i, j := 0, 0
	for i < len(b.Entries) && j < len(rb.Entries) {
		pe, re := b.Entries[i], rb.Entries[j]
		switch {
		case pe.ID.Less(re.ID):
			c.add("replica-agreement", m.Name(), pe.Object, "bucket %s missing record (primary %s has it)", b.Key, p.Name())
			i++
		case re.ID.Less(pe.ID):
			c.add("replica-agreement", m.Name(), re.Object, "bucket %s has extra record (primary %s lacks it)", b.Key, p.Name())
			j++
		default:
			if pe.Object != re.Object || pe.Latest != re.Latest || pe.Prev != re.Prev || pe.Arrived != re.Arrived {
				c.add("replica-agreement", m.Name(), pe.Object, "bucket %s copy %s@%v(prev %s) != primary %s@%v(prev %s)",
					b.Key, re.Latest, re.Arrived, re.Prev, pe.Latest, pe.Arrived, pe.Prev)
			}
			i++
			j++
		}
	}
	for ; i < len(b.Entries); i++ {
		c.add("replica-agreement", m.Name(), b.Entries[i].Object, "bucket %s missing record (primary %s has it)", b.Key, p.Name())
	}
	for ; j < len(rb.Entries); j++ {
		c.add("replica-agreement", m.Name(), rb.Entries[j].Object, "bucket %s has extra record (primary %s lacks it)", b.Key, p.Name())
	}
}

// checkRepoAgreement compares p's IOP repository against the mirrored
// copy each expected mirror holds for p's address.
func (c *replicaChecker) checkRepoAgreement(p *core.Peer, mirrors []*core.Peer) {
	visits := p.DumpVisits()
	if len(visits) == 0 {
		return
	}
	objs := make([]moods.ObjectID, 0, len(visits))
	for obj := range visits {
		objs = append(objs, obj)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	for _, m := range mirrors {
		copyOf := m.DumpRepoReplicas()[p.Addr()]
		if copyOf == nil {
			c.add("repo-replica-missing", m.Name(), "", "no repository copy for %s (%d objects)", p.Name(), len(visits))
			continue
		}
		for _, obj := range objs {
			want := visits[obj]
			got := copyOf[obj]
			if len(got) != len(want) {
				c.add("repo-replica-agreement", m.Name(), obj, "copy of %s has %d visits, primary has %d", p.Name(), len(got), len(want))
				continue
			}
			for i := range want {
				if got[i] != want[i] {
					c.add("repo-replica-agreement", m.Name(), obj, "copy of %s visit %d = %+v, primary %+v", p.Name(), i, got[i], want[i])
					break
				}
			}
		}
		extras := make([]moods.ObjectID, 0)
		for obj := range copyOf {
			if _, ok := visits[obj]; !ok {
				extras = append(extras, obj)
			}
		}
		sort.Slice(extras, func(i, j int) bool { return extras[i] < extras[j] })
		for _, obj := range extras {
			c.add("repo-replica-agreement", m.Name(), obj, "copy of %s has object the primary never observed", p.Name())
		}
	}
}
