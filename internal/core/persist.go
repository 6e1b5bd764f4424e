package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"peertrack/internal/moods"
	"peertrack/internal/replication"
	"peertrack/internal/transport"
)

// Snapshot writes the peer's durable state to w, so that a trackd
// process restarts with its slice of the network's data: its repository
// and gateway buckets, the units it mirrors, each with its version line,
// its containment records and transition model. Chord re-joins instead.
// The file is in the wire format (DESIGN §15): the preface naming its
// version, then per unit a u32 length and a message body headed by the
// peer's name — its buckets as whole-unit replicatePutReqs (entries in
// FIFO order), its repository as a whole repoMirrorReq, then the units it
// mirrors, in unit order, likewise, a containGetResp and, ending the
// file, a transModelResp. Every list is sorted: one state, one file.
func (p *Peer) Snapshot(w io.Writer) error {
	self, name := p.chord.Addr(), string(p.Name())
	b := []byte(transport.Preface)
	for _, key := range p.gw.bucketKeys() {
		req := replicatePutReq{Key: key, Owner: self, Full: true}
		req.Version = p.ownedVersion(replication.IndexUnit(key), func() (queued bool) {
			req.Entries, req.Delegated, queued = p.gw.whole(key)
			return queued
		})
		b = appendUnit(b, name, req)
	}
	repo := repoMirrorReq{Owner: self, Full: true}
	repo.Version = p.ownedVersion(replication.RepoUnit, func() bool {
		repo.Objects = repoObjectsOf(p.repo.snapshot()) // before the queue: a change in between reads as queued
		p.repo.mu.Lock()
		defer p.repo.mu.Unlock()
		return len(p.repo.dirty) > 0
	})
	b = appendUnit(b, name, repo)
	// A held unit's version is read before its data: a push landing in
	// between leaves newer data under an older version, which a probe finds.
	for _, h := range p.repl.Held() {
		if h.Unit.Repo {
			b = appendUnit(b, name, repoMirrorReq{Owner: h.Owner, Version: h.Version, Full: true, Objects: p.repoReplica.dumpOwner(h.Owner)})
			continue
		}
		entries, delegated, _ := p.replica.whole(h.Unit.Key)
		b = appendUnit(b, name, replicatePutReq{Key: h.Unit.Key, Owner: h.Owner, Version: h.Version, Full: true, Delegated: delegated, Entries: entries})
	}
	b = appendUnit(appendUnit(b, name, containGetResp{Records: p.contain.all()}), name, p.trans.model())
	if _, err := w.Write(b); err != nil {
		return fmt.Errorf("core: snapshot: %w", err)
	}
	return nil
}

// ownedVersion returns the version to write with an owned unit's data,
// which read copies under the unit's stream turn, where no push bumps
// it; or 0 if read reports changes in the mirror queue, which the
// mirrors lack: the restored unit is then re-shipped whole.
func (p *Peer) ownedVersion(u replication.Unit, read func() (queued bool)) (v uint64) {
	p.stream(u, false, func() {
		if !read() {
			v, _ = p.repl.Version(u)
		}
	})
	return v
}

// appendUnit appends unit as a length-prefixed body headed by name.
func appendUnit(b []byte, name string, unit transport.Wire) []byte {
	at := len(b)
	b, _ = transport.AppendBody(append(b, 0, 0, 0, 0), name, unit) // a laid-out payload cannot fail
	binary.BigEndian.PutUint32(b[at:], uint32(len(b)-at-4))
	return b
}

// Restore loads a snapshot into a fresh peer before its node joins. It
// checks every unit before it replaces any state, and refuses a file cut
// short, foreign, of another version or holding anything else. A unit is
// installed as a receiver installs it, owned if it names this peer as
// its owner, held otherwise.
func (p *Peer) Restore(r io.Reader) error {
	b, err := io.ReadAll(r)
	var units []any
	if err == nil {
		units, err = p.parseSnapshot(b)
	}
	if err != nil {
		return fmt.Errorf("core: restore: %w", err)
	}
	self := p.chord.Addr()
	for _, unit := range units {
		switch u := unit.(type) {
		case replicatePutReq:
			if u.Owner == self {
				p.gw.replaceBucket(u.Key, u.Entries, u.Delegated)
				p.repl.AdoptOwned(replication.IndexUnit(u.Key), replication.OwnedMeta{Version: u.Version})
			} else {
				p.replica.replaceBucket(u.Key, u.Entries, u.Delegated)
				p.repl.RecordHeld(replication.IndexUnit(u.Key), u.Owner, u.Version)
			}
		case repoMirrorReq:
			if u.Owner == self {
				p.repo.restore(u.Objects)
				p.repl.AdoptOwned(replication.RepoUnit, replication.OwnedMeta{Version: u.Version})
			} else {
				p.repoReplica.apply(u.Owner, u.Objects, true)
				p.repl.RecordHeld(repoUnitOf(u.Owner), u.Owner, u.Version)
			}
		case containGetResp:
			p.contain.mu.Lock()
			p.contain.byChild = make(map[moods.ObjectID][]ContainmentRecord)
			for _, rec := range u.Records {
				p.contain.byChild[rec.Child] = append(p.contain.byChild[rec.Child], rec)
			}
			p.contain.mu.Unlock()
		case transModelResp:
			p.trans.mu.Lock()
			p.trans.byDst = make(map[moods.NodeName]*edgeStat, len(u.Dests))
			for i, d := range u.Dests {
				p.trans.byDst[d] = &edgeStat{count: u.Counts[i], totalDwell: u.MeanDwell[i] * time.Duration(u.Counts[i])}
			}
			p.trans.mu.Unlock()
		}
	}
	return nil
}

// parseSnapshot parses and checks every unit of a snapshot file.
func (p *Peer) parseSnapshot(b []byte) ([]any, error) {
	if !bytes.HasPrefix(b, []byte(transport.Preface)) {
		return nil, fmt.Errorf("not a snapshot of wire format %q (gob snapshots, version 2 and older, are not read)", transport.Preface)
	}
	var units []any
	ended := false // the last unit read is the transition model
	for b = b[len(transport.Preface):]; len(b) > 0; {
		if len(b) < 4 || int(binary.BigEndian.Uint32(b)) > len(b)-4 {
			return nil, errors.New("snapshot cut short")
		}
		n := 4 + int(binary.BigEndian.Uint32(b))
		head, unit, err := transport.ParseBody(b[4:n])
		if err != nil {
			return nil, fmt.Errorf("unit %d: %w", len(units), err)
		}
		if b = b[n:]; head != string(p.Name()) {
			return nil, fmt.Errorf("snapshot belongs to %q, this node is %q", head, p.Name())
		}
		switch u := unit.(type) {
		case replicatePutReq, repoMirrorReq, containGetResp:
		case transModelResp:
			// Restore multiplies each mean dwell back by its count.
			if n := len(u.Dests); len(u.Counts) != n || len(u.MeanDwell) != n || slices.ContainsFunc(u.Counts, func(c int) bool { return c <= 0 }) {
				return nil, fmt.Errorf("transition model of %d destinations has %d counts and %d dwells, want one of each, every count > 0", n, len(u.Counts), len(u.MeanDwell))
			}
		default:
			return nil, fmt.Errorf("unit %d is a %T", len(units), unit)
		}
		units = append(units, unit)
		_, ended = unit.(transModelResp)
	}
	if !ended {
		return nil, errors.New("snapshot cut short: no transition model at its end")
	}
	return units, nil
}

// all lists every containment record, by child and in each child's order.
func (c *containStore) all() []ContainmentRecord {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []ContainmentRecord
	for _, recs := range c.byChild {
		out = append(out, recs...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Child < out[j].Child })
	return out
}
