package core

import (
	"sort"

	"peertrack/internal/ids"
	"peertrack/internal/replication"
	"peertrack/internal/transport"
)

// The splitting–merging process (Section IV-A2): when network growth or
// shrinkage changes the global prefix length Lp, gateway buckets are
// re-levelled one step at a time — a split pushes a too-short bucket's
// records down to its two children (who become parents of new
// triangles), a merge pushes a too-long bucket's records up to its
// parent — "thus eventually we always maintain only triangles, instead
// of trees". Ring-membership changes additionally re-home buckets whose
// gateway moved to a different successor.

// ReconcileStep performs one local reconciliation pass on this peer:
// every bucket whose prefix length or gateway placement disagrees with
// the current network state is moved one level (or re-homed). It
// returns the number of buckets it moved; the caller iterates across
// all peers until the whole network reports 0.
func (p *Peer) ReconcileStep() int {
	moved := 0
	lp := p.pm.Lp()
	keys := p.gw.bucketKeys() // sorted: deterministic migration order (see FlushWindow)
	for _, key := range keys {
		if key == individualKey {
			// Per-object records re-home individually (below), never
			// split/merge by prefix level.
			continue
		}
		pfx := key.Prefix()
		switch {
		case pfx.Len < lp:
			// Split one level: old parent delegates everything into the
			// two new parents (its children). The bucket's version line
			// ends here — its records now live under different keys — so
			// the mirrors drop their copies.
			entries := p.gw.drain(key)
			p.dropOwnedMeta(replication.IndexUnit(key))
			if len(entries) == 0 {
				continue
			}
			split := [2][]IndexEntry{}
			for _, e := range entries {
				split[pfx.NextBit(e.ID)] = append(split[pfx.NextBit(e.ID)], e)
			}
			for bit := 0; bit <= 1; bit++ {
				if len(split[bit]) == 0 {
					continue
				}
				child := pfx.Child(bit)
				p.sendEntries(child, split[bit])
			}
			moved++
		case pfx.Len > lp:
			// Merge one level: children migrate their data to the
			// parent.
			entries := p.gw.drain(key)
			p.dropOwnedMeta(replication.IndexUnit(key))
			if len(entries) == 0 {
				continue
			}
			p.sendEntries(pfx.Parent(), entries)
			moved++
		default:
			// Correct level; verify placement (ring membership may have
			// moved the gateway).
			gwRef, err := p.resolveGateway(pfx)
			if err != nil || gwRef.Addr == p.node.Addr() {
				continue
			}
			entries := p.gw.drain(key)
			u := replication.IndexUnit(key)
			if len(entries) == 0 {
				p.dropOwnedMeta(u)
				continue
			}
			req := delegateReq{Key: key, Entries: entries}
			handoff := false
			if p.mirrors() > 0 && !p.noReplicaHandoff {
				if m, ok := p.repl.ExportOwned(u); ok {
					req.MetaVersion, req.MetaSynced = m.Version, m.Synced
					handoff = true
				}
			}
			if _, err := p.call(gwRef, req); err != nil {
				// Index records must never be lost to a failed migration:
				// re-insert and report the bucket as still moving so the
				// caller retries on a later pass.
				for _, e := range entries {
					p.gw.upsert(pfx, e)
				}
			} else if handoff {
				// The version line (and the mirrors' copies) went with
				// the records: hand off in one step, no re-replication.
				p.repl.DropOwned(u)
			} else {
				p.dropOwnedMeta(u)
			}
			moved++
		}
	}
	moved += p.rehomeIndividual()
	return moved
}

// sendEntries delivers entries to the gateway of the given prefix
// (local upsert when this node is the gateway).
func (p *Peer) sendEntries(pfx ids.Prefix, entries []IndexEntry) {
	gwRef, err := p.resolveGateway(pfx)
	if err != nil {
		// Leave the records where a later pass can retry: re-insert (and
		// start a fresh version line, since the old one was dropped).
		p.reinsertBucket(pfx, entries)
		return
	}
	if _, err := p.call(gwRef, delegateReq{Key: pfx.Key(), Entries: entries}); err != nil {
		p.reinsertBucket(pfx, entries)
	}
}

// reinsertBucket restores drained entries after a failed migration and
// re-mirrors them so the replicas track the restored bucket.
func (p *Peer) reinsertBucket(pfx ids.Prefix, entries []IndexEntry) {
	for _, e := range entries {
		p.gw.upsert(pfx, e)
	}
	p.replicate(pfx.Key(), entries)
}

// evacuate drains every remaining index bucket and hands the records to
// the given address directly, bypassing DHT routing. Shrink uses it as
// a last resort when a leaver's stale routing cannot deliver records to
// their new owners (a lookup can terminate at another leaver): the
// receiver may not own them, but the subsequent network-wide
// reconciliation re-homes them through correct routing — the invariant
// is that departure never loses index records, wherever they land.
func (p *Peer) evacuate(to transport.Addr) {
	keys := p.gw.bucketKeys() // sorted
	for _, key := range keys {
		entries := p.gw.drain(key)
		u := replication.IndexUnit(key)
		if len(entries) == 0 {
			p.dropOwnedMeta(u)
			continue
		}
		req := delegateReq{Key: key, Entries: entries}
		handoff := false
		if key != individualKey && p.mirrors() > 0 && !p.noReplicaHandoff {
			// Hand the replica set over with the records: the receiver
			// adopts the version line and claims the mirrors by probe.
			if m, ok := p.repl.ExportOwned(u); ok {
				req.MetaVersion, req.MetaSynced = m.Version, m.Synced
				handoff = true
			}
		}
		if _, err := p.callAddr(to, req); err != nil {
			// Receiver unreachable: keep the records local rather than
			// lose them.
			for _, e := range entries {
				if key == individualKey {
					p.gw.upsertKeyed(key, e)
				} else {
					p.gw.upsert(key.Prefix(), e)
				}
			}
			p.replicate(key, entries)
		} else if handoff {
			p.repl.DropOwned(u)
		} else {
			p.dropOwnedMeta(u)
		}
	}
}

// rehomeIndividual re-homes per-object index records whose successor
// moved (individual-indexing mode under churn).
func (p *Peer) rehomeIndividual() int {
	b := p.gw.peek(individualKey)
	if b == nil {
		return 0
	}
	p.gw.mu.RLock()
	entries := make([]IndexEntry, 0, len(b.idx))
	for _, e := range b.slab {
		if e.Object != "" {
			entries = append(entries, e)
		}
	}
	p.gw.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].ID.Less(entries[j].ID) })

	moved := 0
	byDest := make(map[string][]IndexEntry)
	for _, e := range entries {
		res, err := p.node.Lookup(e.ID)
		if err != nil || res.Node.Addr == p.node.Addr() {
			continue
		}
		byDest[string(res.Node.Addr)] = append(byDest[string(res.Node.Addr)], e)
	}
	dests := make([]string, 0, len(byDest))
	for dest := range byDest {
		dests = append(dests, dest)
	}
	sort.Strings(dests)
	for _, dest := range dests {
		es := byDest[dest]
		if _, err := p.callAddr(transport.Addr(dest), delegateReq{Key: individualKey, Entries: es}); err != nil {
			continue
		}
		victims := make([]ids.ID, len(es))
		for i, e := range es {
			victims[i] = e.ID
		}
		p.gw.removeAll(individualKey, victims)
		p.mirrorRemove(individualKey, victims)
		moved++
	}
	return moved
}
