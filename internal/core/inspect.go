package core

import (
	"sort"

	"peertrack/internal/ids"
	"peertrack/internal/moods"
	"peertrack/internal/transport"
)

// State inspection for the invariant checker (internal/invariants),
// which reads a simulated network's peers and a live TCP fleet's through
// the same accessors. They copy internal state directly, without sending
// any messages, so a check between chaos steps never perturbs transport
// statistics or the fault-injection randomness stream.

// IndividualBucketKey is the bucket key under which individual-indexing
// records are stored, exposed so external inspectors (the invariant
// checker) can address that bucket in a dump.
const IndividualBucketKey = individualBucket

// BucketSnapshot is a copy of one gateway bucket: the prefix group it
// indexes, its records, and whether it has ever delegated records to
// its Data Triangle children.
type BucketSnapshot struct {
	Key        string
	Prefix     ids.Prefix
	Individual bool // the per-object bucket of individual-indexing mode
	Delegated  bool
	Entries    []IndexEntry
}

// DumpIndex returns a copy of every primary gateway bucket this peer
// holds, sorted by bucket key with entries sorted by hashed id.
func (p *Peer) DumpIndex() []BucketSnapshot { return p.gw.dump() }

// DumpReplicas returns a copy of every replica bucket this peer holds.
func (p *Peer) DumpReplicas() []BucketSnapshot { return p.replica.dump() }

// DumpVisits returns a copy of this peer's local repository: every
// object it has observed with the stitched IOP links.
func (p *Peer) DumpVisits() map[moods.ObjectID][]VisitRecord {
	return p.repo.snapshot()
}

// MaxDescent returns the configured Data Triangle descent bound.
func (p *Peer) MaxDescent() int { return p.cfg.MaxDescent }

// Mode returns the configured indexing mode.
func (p *Peer) Mode() Mode { return p.cfg.Mode }

// ReplicationFactor returns the configured total number of copies of
// each gateway bucket, primary included (factor 1 = no mirroring).
func (p *Peer) ReplicationFactor() int { return p.cfg.ReplicationFactor }

// DumpRepoReplicas returns a copy of every mirrored repository this
// peer holds, keyed by the owning node's address.
func (p *Peer) DumpRepoReplicas() map[transport.Addr]map[moods.ObjectID][]VisitRecord {
	return p.repoReplica.dump()
}

// InjectIndexEntry plants an index record directly into a bucket,
// bypassing the protocol. It exists so invariant-checker tests can
// fabricate corrupted states (wrong bucket, duplicate record) and prove
// the checker catches them; production code must never call it.
func (p *Peer) InjectIndexEntry(bucketKey string, e IndexEntry) {
	if key, err := parseBucketKey(bucketKey); err == nil {
		p.gw.upsert(key, e)
	}
}

// RemoveIndexEntry deletes an index record from a bucket, bypassing the
// protocol (test hook, see InjectIndexEntry).
func (p *Peer) RemoveIndexEntry(bucketKey string, id ids.ID) {
	key, err := parseBucketKey(bucketKey)
	if err != nil {
		return
	}
	p.gw.removeAll(key, []ids.ID{id})
}

// dump copies every bucket of the store (see Peer.DumpIndex).
func (g *gatewayStore) dump() []BucketSnapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]BucketSnapshot, 0, len(g.buckets))
	for key, b := range g.buckets {
		snap := BucketSnapshot{
			Key:        bucketKeyName(key),
			Individual: key == individualKey,
			Delegated:  b.delegated,
			Entries:    g.live(b, len(b.idx)),
		}
		if !snap.Individual {
			snap.Prefix = key.Prefix()
		}
		sort.Slice(snap.Entries, func(i, j int) bool {
			return snap.Entries[i].ID.Less(snap.Entries[j].ID)
		})
		out = append(out, snap)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
