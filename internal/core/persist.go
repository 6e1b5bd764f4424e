package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"
	"time"

	"peertrack/internal/ids"
	"peertrack/internal/moods"
	"peertrack/internal/replication"
	"peertrack/internal/transport"
)

// Snapshot/Restore persist one peer's durable state — the local
// repository (this organisation's observations and IOP links), the
// gateway index buckets it is responsible for, replica copies with the
// owner and version they are held at, and the learned transition model
// — so a trackd process can restart without losing its slice of the
// network's data. The overlay routing state is deliberately not
// persisted: Chord rebuilds it by re-joining.

// snapshotVersion guards format evolution. Version 1 restated each
// bucket's key and slab order in extra columns and did not say whom a
// replica bucket was held for; it still loads (gob skips the dropped
// columns), its replicas unregistered as they were then.
const snapshotVersion = 2

// peerSnapshot is the gob-encoded on-disk format.
type peerSnapshot struct {
	Version int
	Name    moods.NodeName
	SavedAt time.Duration

	Visits map[moods.ObjectID][]VisitRecord

	Buckets  []bucketSnapshot
	Replicas []bucketSnapshot

	Containments map[moods.ObjectID][]ContainmentRecord

	TransDst   []moods.NodeName
	TransCount []int
	TransDwell []time.Duration
}

type bucketSnapshot struct {
	Key       string       // prefix string or the individual-bucket key
	Entries   []IndexEntry // FIFO (slab) order
	Delegated bool
	// Owner and Version are the engine's record of a replica bucket
	// (zero for a primary one): without them a restored copy could be
	// neither probed current, nor promoted, nor collected.
	Owner   transport.Addr
	Version uint64
}

// Snapshot writes the peer's durable state to w.
func (p *Peer) Snapshot(w io.Writer) error {
	snap := peerSnapshot{
		Version: snapshotVersion,
		Name:    p.Name(),
		SavedAt: p.clock(),
		Visits:  p.repo.snapshot(),
	}

	snap.Buckets = snapshotStore(p.gw, nil)
	snap.Replicas = snapshotStore(p.replica, p.repl)

	p.contain.mu.RLock()
	snap.Containments = make(map[moods.ObjectID][]ContainmentRecord, len(p.contain.byChild))
	for child, recs := range p.contain.byChild {
		snap.Containments[child] = append([]ContainmentRecord(nil), recs...)
	}
	p.contain.mu.RUnlock()

	dsts, counts, dwells := p.trans.snapshot()
	snap.TransDst, snap.TransCount, snap.TransDwell = dsts, counts, dwells

	if err := gob.NewEncoder(w).Encode(&snap); err != nil {
		return fmt.Errorf("core: snapshot: %w", err)
	}
	return nil
}

// snapshotStore copies a store's buckets; held, for the replica store,
// supplies each bucket's owner and version.
func snapshotStore(g *gatewayStore, held *replication.Engine) []bucketSnapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]bucketSnapshot, 0, len(g.buckets))
	for key, b := range g.buckets {
		bs := bucketSnapshot{Key: bucketKeyName(key), Entries: g.live(b, len(b.idx)), Delegated: b.delegated}
		if held != nil {
			bs.Owner, bs.Version, _ = held.HeldMeta(replication.IndexUnit(key))
		}
		out = append(out, bs)
	}
	// Bucket order would otherwise follow map iteration, making two
	// snapshots of identical state differ byte-for-byte.
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Restore loads a snapshot into the peer, replacing its durable state.
// Call before the node joins the overlay.
func (p *Peer) Restore(r io.Reader) error {
	var snap peerSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	if snap.Version < 1 || snap.Version > snapshotVersion {
		return fmt.Errorf("core: restore: snapshot version %d, want 1..%d", snap.Version, snapshotVersion)
	}
	if snap.Name != p.Name() {
		return fmt.Errorf("core: restore: snapshot belongs to %q, this node is %q", snap.Name, p.Name())
	}
	// The transition model is three parallel columns; every edge was
	// counted at least once, and its mean dwell divides by the count.
	if n := len(snap.TransDst); len(snap.TransCount) != n || len(snap.TransDwell) != n {
		return fmt.Errorf("core: restore: transition model columns TransDst, TransCount, TransDwell have %d, %d, %d entries",
			n, len(snap.TransCount), len(snap.TransDwell))
	}
	for i, c := range snap.TransCount {
		if c <= 0 {
			return fmt.Errorf("core: restore: transition model column TransCount is %d for %q, want > 0", c, snap.TransDst[i])
		}
	}

	p.repo.restore(snap.Visits)

	restoreStore(p.gw, snap.Buckets, nil)
	restoreStore(p.replica, snap.Replicas, p.repl)

	p.contain.mu.Lock()
	p.contain.byChild = make(map[moods.ObjectID][]ContainmentRecord, len(snap.Containments))
	for child, recs := range snap.Containments {
		p.contain.byChild[child] = append([]ContainmentRecord(nil), recs...)
	}
	p.contain.mu.Unlock()

	p.trans.mu.Lock()
	p.trans.byDst = make(map[moods.NodeName]*edgeStat, len(snap.TransDst))
	for i, d := range snap.TransDst {
		p.trans.byDst[d] = &edgeStat{
			count:      snap.TransCount[i],
			totalDwell: snap.TransDwell[i] * time.Duration(snap.TransCount[i]),
		}
	}
	p.trans.mu.Unlock()
	return nil
}

// restoreStore is the inverse of snapshotStore: replica buckets saved
// with their provenance are registered with held again.
func restoreStore(g *gatewayStore, snaps []bucketSnapshot, held *replication.Engine) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.buckets = make(map[ids.PrefixKey]*bucket, len(snaps))
	for _, bs := range snaps {
		key, err := parseBucketKey(bs.Key)
		if err != nil {
			continue
		}
		b := newBucket()
		b.delegated = bs.Delegated
		// Snapshot entries are in FIFO order; upserting in sequence
		// rebuilds the slab in the same order.
		for _, e := range bs.Entries {
			b.upsert(g.slabEntry(e))
		}
		g.buckets[key] = b
		if held != nil && bs.Version > 0 {
			held.RecordHeld(replication.IndexUnit(key), bs.Owner, bs.Version)
		}
	}
}
