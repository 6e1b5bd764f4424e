package core

import (
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
		if key.Len() == lp {
			// Correct level; verify placement (ring membership may have
			// moved the gateway).
			gwAddr, err := p.resolveGateway(key)
			if err == nil && gwAddr != p.node.Addr() {
				if ok, _ := p.handOff(key, gwAddr); ok {
					moved++
				}
			}
			continue
		}
		// Wrong level. The bucket's version line ends here — its records
		// now live under different keys — so the mirrors drop their
		// copies.
		entries, _ := p.gw.drain(key)
		p.dropOwnedMeta(replication.IndexUnit(key))
		if len(entries) == 0 {
			continue
		}
		if key.Len() > lp {
			// Merge one level: children migrate their data to the
			// parent.
			p.sendEntries(key.Parent(), entries)
		} else {
			// Split one level: old parent delegates everything into the
			// two new parents (its children).
			split := [2][]IndexEntry{}
			for _, e := range entries {
				split[key.NextBit(e.ID)] = append(split[key.NextBit(e.ID)], e)
			}
			for bit := 0; bit <= 1; bit++ {
				if len(split[bit]) > 0 {
					p.sendEntries(key.Child(bit), split[bit])
				}
			}
		}
		moved++
	}
	moved += p.rehomeIndividual()
	return moved
}

// handOff moves the whole bucket keyed key to the node at `to`, and
// reports whether there was anything to move and how the delivery went.
// With replication on, the bucket's version line travels with the
// records: the receiver adopts both and claims the mirrors' existing
// copies by probe, so nothing is re-replicated. Per-object records
// merge one by one at the receiver, which has no use for a line: theirs
// ends here, like that of a bucket found empty. A bucket that cannot be
// delivered stays, records and line as they were — index records must
// never be lost to a failed migration, and the caller retries on a
// later pass.
func (p *Peer) handOff(key ids.PrefixKey, to transport.Addr) (bool, error) {
	entries, _ := p.gw.drain(key)
	u := replication.IndexUnit(key)
	if len(entries) == 0 {
		p.dropOwnedMeta(u)
		return false, nil
	}
	req := delegateReq{Key: key, Entries: entries}
	handoff := false
	if key != individualKey && p.mirrors() > 0 {
		if m, ok := p.repl.ExportOwned(u); ok {
			req.MetaVersion, req.MetaSynced, handoff = m.Version, m.Synced, true
		}
	}
	_, err := p.call(to, req)
	if err != nil {
		for _, e := range entries {
			p.gw.put(key, e)
		}
	} else if handoff {
		p.repl.DropOwned(u)
	} else {
		p.dropOwnedMeta(u)
	}
	return true, err
}

// sendEntries delivers entries to the gateway of the given prefix
// (local upsert when this node is the gateway).
func (p *Peer) sendEntries(key ids.PrefixKey, entries []IndexEntry) {
	gwAddr, err := p.resolveGateway(key)
	if err == nil {
		_, err = p.call(gwAddr, delegateReq{Key: key, Entries: entries})
	}
	if err != nil {
		// Leave the records where a later pass can retry: re-insert and
		// re-mirror them (a fresh version line, since the old one was
		// dropped).
		p.putEntries(key, entries)
	}
}

// rehomeIndividual re-homes per-object index records whose successor
// moved (individual-indexing mode under churn).
func (p *Peer) rehomeIndividual() int {
	entries, _ := p.gw.dumpBucket(individualKey) // sorted by id
	moved := 0
	byDest := make(map[transport.Addr][]IndexEntry)
	for _, e := range entries {
		res, err := p.node.Lookup(e.ID)
		if err != nil || res.Node.Addr == p.node.Addr() {
			continue
		}
		byDest[res.Node.Addr] = append(byDest[res.Node.Addr], e)
	}
	for _, dest := range sortedDests(byDest) {
		if _, err := p.call(dest, delegateReq{Key: individualKey, Entries: byDest[dest]}); err != nil {
			continue
		}
		victims := entryIDs(byDest[dest])
		p.gw.removeAll(individualKey, victims)
		p.mirrorIndex(individualKey, true)
		moved++
	}
	return moved
}
