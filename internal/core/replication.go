package core

import (
	"sort"
	"sync"

	"peertrack/internal/ids"
	"peertrack/internal/moods"
	"peertrack/internal/replication"
	"peertrack/internal/transport"
)

// Replication gives gateway state crash tolerance. The paper leans on
// Chord's behaviour under *voluntary* churn ("when a peer leaves, it
// will migrate its data to another peer"); a production deployment also
// has to survive crashes, where no migration happens. With
// Config.ReplicationFactor = k > 1, every peer mirrors each of its
// gateway index buckets and its IOP repository to its first k−1 ring
// successors — exactly the nodes Chord makes the new owners of its key
// range when it dies.
//
// Buckets and repositories are replication.Units and share one code
// path. The scheme has three legs (see DESIGN.md §13):
//
//   - Synchronous mirroring through one ordered stream per unit. A
//     writer applies its mutation, queues what it touched with the
//     unit's store — names, not values — and calls mirror. Whoever
//     holds the unit's stream (replication.Engine.Acquire: one push in
//     flight per unit, no lock held across it) takes everything queued,
//     reads the current values, bumps the version and sends one delta; a
//     writer that finds the stream taken waits until a writer's turn
//     that began after its mutation has ended, and never sends its own
//     (stream: group commit). A mirror accepts a delta only if it extends
//     the version it holds (acceptPush). The whole unit is shipped only
//     to a mirror the owner has no record of at the previous version, one
//     that refuses the delta, or one a probe finds elsewhere (pushFull).
//
//   - Deterministic failover: a query that cannot reach a unit's owner
//     walks its replica candidates in ring order (chord.LookupSet) and
//     serves from the first live copy; reads prefer the owner, so none
//     sees an empty or stale answer while one replica is alive.
//
//   - Anti-entropy repair, as the holder of each owned unit's stream,
//     probes the current mirror set with a version check (one small
//     message unless the mirror is not current), promotes held replicas
//     whose key range this node now owns, and garbage-collects replicas
//     no owner claims: the replica rows of the maintenance table, the
//     simulator's Network.SyncReplicas, and, for promotion, gossip death
//     verdicts (onGossipDead).

// replicatePutReq pushes index-bucket state to a mirror: the entries
// written and the ids removed by one protocol message at the owner, or,
// with Full, the whole bucket, which replaces the mirror's copy. Version
// is the owner's bucket version after the update (see acceptPush).
type replicatePutReq struct {
	Key       ids.PrefixKey
	Owner     transport.Addr
	Version   uint64
	Full      bool
	Delegated bool
	Entries   []IndexEntry
	Removed   []ids.ID
}

// WireSize charges the two flags as the one byte they pack into.
func (r replicatePutReq) WireSize() int {
	return keyWireSize + len(r.Owner) + 8 + 1 + len(r.Removed)*ids.Bytes + sizeOfEntries(r.Entries)
}

// mirrorResp answers a mirror push of either kind: Current reports that
// the mirror now holds the pushed version.
type mirrorResp struct{ Current bool }

func (r mirrorResp) WireSize() int { return 1 }

// replicaCheckReq is the anti-entropy version probe: does the mirror
// hold this unit current at Version? A match also transfers the
// recorded ownership to the probing owner, which is how a bucket
// handoff re-claims the previous owner's mirror copies without
// re-shipping them.
type replicaCheckReq struct {
	Key     ids.PrefixKey
	Repo    bool
	Owner   transport.Addr
	Version uint64
}

func (r replicaCheckReq) WireSize() int { return keyWireSize + 1 + len(r.Owner) + 8 }

type replicaCheckResp struct{ Current bool }

func (r replicaCheckResp) WireSize() int { return 1 }

// replicaDropReq tells a mirror to discard its copy of one unit (the
// owner dropped or handed off the unit and the mirror set no longer
// includes the receiver).
type replicaDropReq struct {
	Key   ids.PrefixKey
	Repo  bool
	Owner transport.Addr
}

func (r replicaDropReq) WireSize() int { return keyWireSize + 1 + len(r.Owner) }

type replicaDropResp struct{}

// replicaQueryReq is the failover read: asks a replica candidate for
// the index records of the given objects, served from whatever copy it
// has (its own gateway bucket if it was promoted, its replica store
// otherwise) without promoting anything.
type replicaQueryReq struct {
	Key     ids.PrefixKey
	Objects []ids.ID
}

func (r replicaQueryReq) WireSize() int { return keyWireSize + len(r.Objects)*ids.Bytes }

type replicaQueryResp struct {
	Entries   []IndexEntry
	Delegated bool
}

func (r replicaQueryResp) WireSize() int { return 1 + sizeOfEntries(r.Entries) }

// RepoObject is one object's full visit list inside repo mirror pushes.
type RepoObject struct {
	Object moods.ObjectID
	Visits []VisitRecord
}

// repoObjectsOf lists a repository (or a mirrored copy of one) as push
// payload, sorted by object.
func repoObjectsOf(m map[moods.ObjectID][]VisitRecord) []RepoObject {
	out := make([]RepoObject, 0, len(m))
	for obj, vs := range m {
		out = append(out, RepoObject{Object: obj, Visits: vs})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Object < out[j].Object })
	return out
}

// repoMirrorReq pushes repository state to a mirror: the visit lists of
// the objects dirtied since the last push (or, with Full, the whole
// repository).
type repoMirrorReq struct {
	Owner   transport.Addr
	Version uint64
	Full    bool
	Objects []RepoObject
}

func (r repoMirrorReq) WireSize() int {
	n := len(r.Owner) + 9
	for _, o := range r.Objects {
		n += len(o.Object) + len(o.Visits)*32
	}
	return n
}

// repoQueryReq is the repository failover read: asks a replica
// candidate for the visits it mirrors of Owner's copy of Object.
type repoQueryReq struct {
	Owner  transport.Addr
	Object moods.ObjectID
}

func (r repoQueryReq) WireSize() int { return len(r.Owner) + len(r.Object) }

type repoQueryResp struct {
	Visits []VisitRecord
	Found  bool
}

func (r repoQueryResp) WireSize() int { return 1 + len(r.Visits)*32 }

// The wire layouts of the messages above (tag table in messages.go).

// Full and Delegated pack into the one byte WireSize charges them.
func (m replicatePutReq) AppendWire(b []byte) []byte {
	var flags byte
	if m.Full {
		flags |= 1
	}
	if m.Delegated {
		flags |= 2
	}
	b = transport.AppendString(transport.AppendInt(b, m.Key), m.Owner)
	b = transport.AppendByte(transport.AppendInt(b, m.Version), flags)
	return appendIDs(appendEntries(b, m.Entries), m.Removed)
}

func readReplicatePutReq(r *transport.Reader) replicatePutReq {
	m := replicatePutReq{Key: r.PrefixKey(), Owner: transport.Addr(r.String()), Version: r.U64()}
	flags := r.Flags(2)
	m.Full, m.Delegated = flags&1 != 0, flags&2 != 0
	m.Entries, m.Removed = readEntries(r), readIDs(r)
	return m
}

func (m mirrorResp) AppendWire(b []byte) []byte { return transport.AppendBool(b, m.Current) }

func readMirrorResp(r *transport.Reader) mirrorResp { return mirrorResp{Current: r.Bool()} }

func (m replicaCheckReq) AppendWire(b []byte) []byte {
	b = transport.AppendBool(transport.AppendInt(b, m.Key), m.Repo)
	return transport.AppendInt(transport.AppendString(b, m.Owner), m.Version)
}

func readReplicaCheckReq(r *transport.Reader) replicaCheckReq {
	return replicaCheckReq{Key: r.PrefixKey(), Repo: r.Bool(), Owner: transport.Addr(r.String()), Version: r.U64()}
}

func (m replicaCheckResp) AppendWire(b []byte) []byte { return transport.AppendBool(b, m.Current) }

func readReplicaCheckResp(r *transport.Reader) replicaCheckResp {
	return replicaCheckResp{Current: r.Bool()}
}

func (m replicaDropReq) AppendWire(b []byte) []byte {
	return transport.AppendString(transport.AppendBool(transport.AppendInt(b, m.Key), m.Repo), m.Owner)
}

func readReplicaDropReq(r *transport.Reader) replicaDropReq {
	return replicaDropReq{Key: r.PrefixKey(), Repo: r.Bool(), Owner: transport.Addr(r.String())}
}

func (replicaDropResp) AppendWire(b []byte) []byte { return b }

func (m replicaQueryReq) AppendWire(b []byte) []byte {
	return appendIDs(transport.AppendInt(b, m.Key), m.Objects)
}

func readReplicaQueryReq(r *transport.Reader) replicaQueryReq {
	return replicaQueryReq{Key: r.PrefixKey(), Objects: readIDs(r)}
}

func (m replicaQueryResp) AppendWire(b []byte) []byte {
	return transport.AppendBool(appendEntries(b, m.Entries), m.Delegated)
}

func readReplicaQueryResp(r *transport.Reader) replicaQueryResp {
	return replicaQueryResp{Entries: readEntries(r), Delegated: r.Bool()}
}

func appendRepoObject(b []byte, o RepoObject) []byte {
	return appendVisitRecords(transport.AppendString(b, o.Object), o.Visits)
}

func readRepoObject(r *transport.Reader) RepoObject {
	return RepoObject{Object: moods.ObjectID(r.String()), Visits: readVisitRecords(r)}
}

func (m repoMirrorReq) AppendWire(b []byte) []byte {
	b = transport.AppendInt(transport.AppendString(b, m.Owner), m.Version)
	return transport.AppendSlice(transport.AppendBool(b, m.Full), m.Objects, appendRepoObject)
}

func readRepoMirrorReq(r *transport.Reader) repoMirrorReq {
	return repoMirrorReq{
		Owner:   transport.Addr(r.String()),
		Version: r.U64(),
		Full:    r.Bool(),
		Objects: transport.ReadSlice(r, stringWireMin+4, readRepoObject),
	}
}

func (m repoQueryReq) AppendWire(b []byte) []byte {
	return transport.AppendString(transport.AppendString(b, m.Owner), m.Object)
}

func readRepoQueryReq(r *transport.Reader) repoQueryReq {
	return repoQueryReq{Owner: transport.Addr(r.String()), Object: moods.ObjectID(r.String())}
}

func (m repoQueryResp) AppendWire(b []byte) []byte {
	return transport.AppendBool(appendVisitRecords(b, m.Visits), m.Found)
}

func readRepoQueryResp(r *transport.Reader) repoQueryResp {
	return repoQueryResp{Visits: readVisitRecords(r), Found: r.Bool()}
}

// repoUnitOf derives the replication unit under which a mirror tracks
// one remote owner's repository — per-owner, because at factor ≥ 3 a
// node mirrors the repositories of several ring predecessors at once.
// The key packs the first bytes of the owner-address hash; Repo
// distinguishes it from every index unit.
func repoUnitOf(owner transport.Addr) replication.Unit {
	h := ids.Hash([]byte(owner))
	var k uint64
	for i := 0; i < 8; i++ {
		k = k<<8 | uint64(h[i])
	}
	return replication.Unit{Key: ids.PrefixKey(k), Repo: true}
}

// heldUnitOf names the unit under which a mirror tracks what a probe or
// drop from owner calls (key, repo).
func heldUnitOf(key ids.PrefixKey, repo bool, owner transport.Addr) replication.Unit {
	if repo {
		return repoUnitOf(owner)
	}
	return replication.IndexUnit(key)
}

// repoReplicaStore holds the repository copies this node mirrors for
// other owners, keyed by owner address.
type repoReplicaStore struct {
	mu      sync.RWMutex
	byOwner map[transport.Addr]map[moods.ObjectID][]VisitRecord
}

// apply stores the pushed visit lists of owner's repository; with
// replace they are its whole content, not an update.
func (s *repoReplicaStore) apply(owner transport.Addr, objs []RepoObject, replace bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.byOwner == nil {
		s.byOwner = make(map[transport.Addr]map[moods.ObjectID][]VisitRecord)
	}
	m := s.byOwner[owner]
	if m == nil || replace {
		m = make(map[moods.ObjectID][]VisitRecord, len(objs))
		s.byOwner[owner] = m
	}
	for _, o := range objs {
		m[o.Object] = append([]VisitRecord(nil), o.Visits...)
	}
}

func (s *repoReplicaStore) get(owner transport.Addr, obj moods.ObjectID) ([]VisitRecord, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	vs, ok := s.byOwner[owner][obj]
	if !ok {
		return nil, false
	}
	return append([]VisitRecord(nil), vs...), true
}

func (s *repoReplicaStore) dropOwner(owner transport.Addr) {
	s.mu.Lock()
	delete(s.byOwner, owner)
	s.mu.Unlock()
}

// ownerLocked deep-copies the repository mirrored for one owner.
func (s *repoReplicaStore) ownerLocked(owner transport.Addr) map[moods.ObjectID][]VisitRecord {
	cp := make(map[moods.ObjectID][]VisitRecord, len(s.byOwner[owner]))
	for obj, vs := range s.byOwner[owner] {
		cp[obj] = append([]VisitRecord(nil), vs...)
	}
	return cp
}

// dumpOwner returns the repository mirrored for one owner as push
// payload (the restore path ships it back).
func (s *repoReplicaStore) dumpOwner(owner transport.Addr) []RepoObject {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return repoObjectsOf(s.ownerLocked(owner))
}

func (s *repoReplicaStore) dump() map[transport.Addr]map[moods.ObjectID][]VisitRecord {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[transport.Addr]map[moods.ObjectID][]VisitRecord, len(s.byOwner))
	for owner := range s.byOwner {
		out[owner] = s.ownerLocked(owner)
	}
	return out
}

// --- owner side: the mirror handshake ----------------------------------

// mirrors is the number of copies beyond the primary (0 = replication
// off).
func (p *Peer) mirrors() int { return p.cfg.ReplicationFactor - 1 }

// mirrorSet returns the current mirror addresses: the first mirrors()
// distinct non-self successors.
func (p *Peer) mirrorSet() []transport.Addr {
	if p.mirrors() <= 0 {
		return nil
	}
	out := make([]transport.Addr, 0, p.mirrors())
	for _, succ := range p.node.Neighbors() {
		if len(out) >= p.mirrors() {
			break
		}
		if succ.Addr == p.node.Addr() {
			continue
		}
		dup := false
		for _, have := range out {
			if have == succ.Addr {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, succ.Addr)
		}
	}
	return out
}

// stream runs round as the holder of u's mirror stream, waiting its
// turn. A writer — whose round is mirror's, which sends what is queued —
// that finds the stream taken returns without a turn once another
// writer's turn that began after the call has ended: that turn sent
// what the caller had queued. Probe and re-sync turns send nothing
// queued, so no writer takes their end for an acknowledgement.
func (p *Peer) stream(u replication.Unit, writer bool, round func()) {
	began := false // the turn last waited for began after this call
	for wait, sent := p.repl.Acquire(u, writer); wait != nil; wait, sent = p.repl.Acquire(u, writer) {
		<-wait
		if began && sent && writer {
			p.tel.reg.Counter("core.replication.coalesced").Inc()
			return
		}
		began = true
	}
	defer p.repl.Release(u)
	round()
}

// mirror is the owner side of the handshake, the same for every unit
// kind: bump the unit's version and bring each mirror to it — with the
// delta when the mirror held the previous version, with the unit's full
// state when it did not or answers that it holds some other version (it
// restarted, or a push was lost). An unreachable mirror is marked
// unsynced and repaired by the next mutation or sync round. mirror
// returns once the caller's queued mutation has been through that.
func (p *Peer) mirror(u replication.Unit) {
	p.stream(u, true, func() {
		delta, v := p.nextDelta(u)
		if delta == nil {
			return
		}
		for _, addr := range p.mirrorSet() {
			if p.repl.SyncedAt(u, addr) != v-1 {
				p.pushFull(u, addr, v, "new_mirror")
				continue
			}
			resp, err := p.call(addr, delta)
			switch {
			case err != nil:
				p.repl.ClearSynced(u, addr)
			case resp.(mirrorResp).Current:
				p.repl.MarkSynced(u, addr, v)
				p.tel.replMirrorWrites.Inc()
			default:
				p.pushFull(u, addr, v, "not_current")
			}
		}
	})
}

// nextDelta takes everything queued for u and, unless that is nothing,
// bumps u's version and builds the push that carries it there. Queued
// ids are read now — a record still there is written, one gone is
// removed — so an older value never follows a newer one to a mirror.
func (p *Peer) nextDelta(u replication.Unit) (any, uint64) {
	if u.Repo {
		objs, dirty := p.repo.takeDirty()
		if !dirty {
			return nil, 0
		}
		v := p.repl.Bump(u)
		return repoMirrorReq{Owner: p.node.Addr(), Version: v, Objects: objs}, v
	}
	touched := p.gw.takeDirty(u.Key)
	if len(touched) == 0 {
		return nil, 0
	}
	v := p.repl.Bump(u)
	entries, delegated := p.gw.query(u.Key, touched)
	return replicatePutReq{Key: u.Key, Owner: p.node.Addr(), Version: v, Delegated: delegated, Entries: entries, Removed: missingFrom(touched, entries)}, v
}

// pushFull ships the unit's entire current state to one mirror at
// version v and counts it under cause; for the holder of u's stream.
func (p *Peer) pushFull(u replication.Unit, addr transport.Addr, v uint64, cause string) {
	var req any
	if u.Repo {
		req = repoMirrorReq{Owner: p.node.Addr(), Version: v, Full: true, Objects: repoObjectsOf(p.repo.snapshot())}
	} else {
		entries, delegated := p.gw.dumpBucket(u.Key)
		req = replicatePutReq{Key: u.Key, Owner: p.node.Addr(), Version: v, Full: true, Delegated: delegated, Entries: entries}
	}
	if resp, err := p.call(addr, req); err != nil || !resp.(mirrorResp).Current {
		p.repl.ClearSynced(u, addr)
		return
	}
	p.repl.MarkSynced(u, addr, v)
	p.tel.replRepairPushes.Inc()
	p.tel.reg.Counter("core.replication.repair_pushes." + cause).Inc()
}

// mirrorIndex pushes what the writers of the bucket keyed key queued
// (gatewayStore.queue) to its mirrors. A caller that wrote returns once
// its writes are at the mirrors, its own push or a later one's; one that
// wrote nothing does not wait.
func (p *Peer) mirrorIndex(key ids.PrefixKey, wrote bool) {
	if wrote && p.mirrors() > 0 {
		p.mirror(replication.IndexUnit(key))
	}
}

// flushRepoMirror mirrors the visit lists dirtied since the last flush,
// batched at the granularity of the triggering protocol message (a
// window flush, or one M2/M3 stitch batch).
func (p *Peer) flushRepoMirror() {
	if p.mirrors() > 0 {
		p.mirror(replication.RepoUnit)
	}
}

// --- mirror side --------------------------------------------------------

// acceptPush is the mirror side of the handshake, the same for every
// unit kind: a push is applied when it carries the unit's full state,
// extends the version held, or is the first at version 1. Anything else
// means an update was missed; the owner answers with a full push.
func (p *Peer) acceptPush(u replication.Unit, v uint64, full bool) bool {
	_, hv, held := p.repl.HeldMeta(u)
	return full || (held && hv+1 == v) || (!held && v == 1)
}

// handleReplicatePut applies one index-bucket push.
func (p *Peer) handleReplicatePut(r replicatePutReq) mirrorResp {
	u := replication.IndexUnit(r.Key)
	if !p.acceptPush(u, r.Version, r.Full) {
		return mirrorResp{}
	}
	if r.Full {
		p.replica.replaceBucket(r.Key, r.Entries, r.Delegated)
	} else {
		for _, e := range r.Entries {
			p.replica.upsert(r.Key, e)
		}
		p.replica.removeAll(r.Key, r.Removed)
		if r.Delegated {
			p.replica.markDelegated(r.Key)
		}
	}
	p.repl.RecordHeld(u, r.Owner, r.Version)
	return mirrorResp{Current: true}
}

// handleRepoMirror applies one repository push.
func (p *Peer) handleRepoMirror(r repoMirrorReq) mirrorResp {
	if r.Owner == p.node.Addr() {
		// A mirror is returning this node's own repository: we came
		// back from a restart with an empty store, stopped probing, and
		// the mirror's GC pass is restoring its copy before dropping
		// it. Adopt the objects we have no record of — anything
		// re-observed since the restart keeps its fresh local history;
		// the adoptions are re-mirrored by the next flush.
		for _, o := range r.Objects {
			p.repo.adopt(o.Object, o.Visits)
		}
		return mirrorResp{Current: true}
	}
	u := repoUnitOf(r.Owner)
	if !p.acceptPush(u, r.Version, r.Full) {
		return mirrorResp{}
	}
	p.repoReplica.apply(r.Owner, r.Objects, r.Full)
	p.repl.RecordHeld(u, r.Owner, r.Version)
	return mirrorResp{Current: true}
}

// dropHeld discards this mirror's copy of one unit, data and
// bookkeeping together.
func (p *Peer) dropHeld(u replication.Unit) {
	if !u.Repo {
		p.replica.dropBucket(u.Key)
	} else if owner, _, ok := p.repl.HeldMeta(u); ok {
		p.repoReplica.dropOwner(owner)
	}
	p.repl.DropHeld(u)
}

// queryStores answers an index read from the primary store and, for
// the objects it lacks, from the replica store. With promote — the
// write paths and the owner's own query handler — replica hits whose
// key range this node owns move into the primary store, so subsequent
// updates see them. Failover reads pass false: the querier may be
// racing the owner's recovery.
func (p *Peer) queryStores(key ids.PrefixKey, objs []ids.ID, promote bool) ([]IndexEntry, bool) {
	entries, delegated := p.gw.query(key, objs)
	if p.mirrors() <= 0 || len(entries) == len(objs) {
		return entries, delegated
	}
	extra, d2 := p.replica.query(key, missingFrom(objs, entries))
	if promote && len(extra) > 0 {
		p.promote(key, extra)
	}
	return append(entries, extra...), delegated || d2
}

// lookupWithReplica is queryStores for one object on the write paths.
func (p *Peer) lookupWithReplica(key ids.PrefixKey, id ids.ID) (IndexEntry, bool) {
	if e, ok := p.gw.lookup(key, id); ok || p.mirrors() <= 0 {
		return e, ok
	}
	if es, _ := p.queryStores(key, []ids.ID{id}, true); len(es) > 0 {
		return es[0], true
	}
	return IndexEntry{}, false
}

// promote copies replica records this node now owns into its primary
// store. The ownership gate matters: a mirror serving reads while the
// primary is merely unreachable (crashed but still the ring owner) must
// not hijack the bucket — failover reads serve from the replica store
// directly. Promotion happens once the ring actually makes this node
// the owner (stabilization after churn).
func (p *Peer) promote(key ids.PrefixKey, entries []IndexEntry) {
	if key != individualKey && !p.node.Owns(key.GatewayID()) {
		return
	}
	wrote := false
	for _, e := range entries {
		// A prefix group is placed whole, by its gateway id (checked
		// above); per-object records one by one, by their own ids.
		if key != individualKey || p.node.Owns(e.ID) {
			p.gw.upsert(key, e)
			wrote = true
		}
	}
	p.mirrorIndex(key, wrote)
}

// --- failover reads ---------------------------------------------------

// failoverRead asks the replica candidates of the unit placed at
// ringKey, in ring order (chord.LookupSet) and without skip — the owner
// that already failed to answer — until hit accepts a response. It
// returns the RPCs spent and whether one did. Nothing is asked when
// replication is off.
func (p *Peer) failoverRead(ringKey ids.ID, skip transport.Addr, req any, hit func(resp any) bool) (int, bool) {
	if p.mirrors() <= 0 {
		return 0, false
	}
	set, err := p.node.LookupSet(ringKey, p.cfg.ReplicationFactor)
	if err != nil {
		return 0, false
	}
	hops := 0
	for _, ref := range set {
		if ref.Addr == skip {
			continue
		}
		resp, err := p.call(ref.Addr, req)
		if ref.Addr != p.node.Addr() {
			hops++
		}
		if err == nil && hit(resp) {
			p.tel.replFallthrough.Inc()
			return hops, true
		}
	}
	return hops, false
}

// replicaFallthrough serves an index read whose owner is unreachable
// from the next live replica. ringKey is the DHT key the bucket is
// placed by (the prefix's gateway id, or the object's own hashed id
// under individual indexing); failed is the owner address that did not
// answer.
func (p *Peer) replicaFallthrough(key ids.PrefixKey, ringKey ids.ID, id ids.ID, failed transport.Addr) (IndexEntry, int, bool, bool) {
	var e IndexEntry
	delegated := false
	hops, found := p.failoverRead(ringKey, failed, replicaQueryReq{Key: key, Objects: []ids.ID{id}}, func(resp any) bool {
		qr := resp.(replicaQueryResp)
		delegated = delegated || qr.Delegated
		if len(qr.Entries) == 0 {
			return false
		}
		e = qr.Entries[0]
		return true
	})
	return e, hops, found, delegated
}

// fetchVisitsRead is fetchVisits with repository failover: when the
// node holding a visit segment is unreachable, the read falls through
// to the mirrors of that node's repository. Only pure reads
// (locate/trace walks) use it; stitch walks keep the plain fetch,
// because their defer-and-retry contract must see the fault.
func (p *Peer) fetchVisitsRead(node moods.NodeName, obj moods.ObjectID) ([]VisitRecord, int, error) {
	vs, hops, err := p.fetchVisits(node, obj)
	if err == nil {
		return vs, hops, nil
	}
	// A node's repository mirrors sit at its ring successors; its ring
	// position is the hash of its address (chord.New), so the replica
	// candidate set of that position starts at the owner itself.
	owner := transport.Addr(node)
	h, ok := p.failoverRead(ids.Hash([]byte(owner)), owner, repoQueryReq{Owner: owner, Object: obj}, func(resp any) bool {
		qr := resp.(repoQueryResp)
		vs = qr.Visits
		return qr.Found
	})
	if ok {
		return vs, hops + h, nil
	}
	return nil, hops + h, err
}

// --- anti-entropy sync ------------------------------------------------

// BeginReplicaSync opens a repair generation (see replication.Engine).
func (p *Peer) BeginReplicaSync() { p.repl.BeginSync() }

// PromoteOwnedReplicas promotes every held index replica whose key
// range this node now owns: the dead (or departed) owner's bucket is
// merged into the primary store and this node takes over its version
// line, claiming the surviving mirror copies by probe in the next
// SyncOwnedReplicas pass.
func (p *Peer) PromoteOwnedReplicas() {
	if p.mirrors() <= 0 {
		return
	}
	for _, h := range p.repl.Held() {
		p.maybePromoteHeld(h)
	}
}

// maybePromoteHeld promotes the records of one held index unit that
// fall in this node's range: all of a prefix bucket whose gateway id it
// owns; of the individual bucket, each record it owns by the record's
// own id, while the rest stay held as they were.
func (p *Peer) maybePromoteHeld(h replication.HeldInfo) {
	u, key := h.Unit, h.Unit.Key
	if u.Repo || h.Owner == p.node.Addr() {
		return
	}
	if key != individualKey && !p.node.Owns(key.GatewayID()) {
		return
	}
	entries, delegated := p.replica.drain(key)
	var mine []IndexEntry
	for _, e := range entries {
		if key != individualKey || p.node.Owns(e.ID) {
			mine = append(mine, e)
		} else {
			p.replica.upsert(key, e)
		}
	}
	if len(mine) == len(entries) {
		p.dropHeld(u)
	}
	if key == individualKey && len(mine) == 0 {
		return
	}
	for _, e := range mine {
		p.gw.put(key, p.merged(key, e))
	}
	if delegated {
		p.gw.markDelegated(key)
	}
	p.tel.replPromotions.Inc()
	_, owned := p.repl.Version(u)
	if !owned {
		// Continue the dead owner's version line: the surviving mirrors
		// of a prefix bucket hold exactly this version, so the coming
		// probe pass claims them without re-shipping data.
		p.repl.AdoptOwned(u, replication.OwnedMeta{Version: h.Version})
	}
	if owned || key == individualKey {
		// Merged into an existing owned line, or holding only this
		// node's share of the per-object records: the contents differ
		// from every mirror copy, so force a full re-sync.
		p.stream(u, false, func() {
			p.repl.Bump(u)
			for _, a := range p.mirrorSet() {
				p.repl.ClearSynced(u, a)
			}
		})
	}
}

// SyncOwnedReplicas probes every owned unit against the current mirror
// set: a version match costs one probe message and also transfers
// recorded ownership (claiming a handed-off or promoted unit's existing
// copies); a mismatch or a new mirror gets a full push. Every mirror of
// every owned unit is probed — the probe is also the liveness touch
// that keeps the mirror's copy from being garbage-collected as
// orphaned.
func (p *Peer) SyncOwnedReplicas() {
	if p.mirrors() <= 0 {
		return
	}
	mirrors := p.mirrorSet()
	for _, u := range p.repl.OwnedUnits() {
		p.stream(u, false, func() {
			v, ok := p.repl.Version(u)
			if !ok {
				return
			}
			for _, addr := range mirrors {
				p.tel.replProbes.Inc()
				resp, err := p.call(addr, replicaCheckReq{Key: u.Key, Repo: u.Repo, Owner: p.node.Addr(), Version: v})
				switch {
				case err != nil:
					p.repl.ClearSynced(u, addr)
				case resp.(replicaCheckResp).Current:
					p.repl.MarkSynced(u, addr, v)
				default:
					p.pushFull(u, addr, v, "probe_mismatch")
				}
			}
		})
	}
}

// DropStaleReplicas garbage-collects held units no owner probed or
// pushed this sync round — replicas whose owner stopped replicating to
// this node (mirror set moved on, unit handed off elsewhere), except
// those of owners the failure detector currently says are dead. The
// owner being alive, it usually still has the records — but after a
// restart-with-same-identity it came back EMPTY, was never verdicted
// dead or has been resurrected by its first gossip exchange since, and
// this copy may be the last one. So the unit is shipped back
// through the normal write paths before dropping (restoreHeld): a
// duplicate merge is idempotent, and a restore is the difference
// between garbage collection and data loss. An undeliverable copy is
// held for another generation instead.
func (p *Peer) DropStaleReplicas() {
	if p.mirrors() <= 0 {
		return
	}
	var dead func(transport.Addr) bool
	if p.gossip != nil {
		dead = p.gossip.IsDead
	}
	for _, h := range p.repl.StaleHeld(dead) {
		if p.restoreHeld(h) {
			p.dropHeld(h.Unit)
			p.tel.replDrops.Inc()
		}
	}
}

// restoreHeld ships a stale held unit's contents back to where reads
// will look for them — the owner for repository copies, each record's
// current gateway for index buckets — and reports whether delivery
// succeeded (only then is the local copy safe to GC). Empty units
// restore trivially.
func (p *Peer) restoreHeld(h replication.HeldInfo) bool {
	if h.Unit.Repo {
		objs := p.repoReplica.dumpOwner(h.Owner)
		if len(objs) == 0 {
			return true
		}
		if _, err := p.call(h.Owner, repoMirrorReq{Owner: h.Owner, Version: h.Version, Full: true, Objects: objs}); err != nil {
			return false
		}
		p.tel.replRestores.Inc()
		return true
	}
	key := h.Unit.Key
	entries, _ := p.replica.dumpBucket(key)
	if len(entries) == 0 {
		return true
	}
	// Resolve every destination before sending anything: a record that
	// cannot be placed, or that is ours now (promotion handles it on the
	// next pass), keeps the whole copy here.
	byDest := make(map[transport.Addr][]IndexEntry)
	if key != individualKey {
		gwAddr, err := p.resolveGateway(key)
		if err != nil || gwAddr == p.node.Addr() {
			return false
		}
		byDest[gwAddr] = entries
	} else {
		// Per-object records re-home individually: each entry goes to
		// its ring successor (the recorded owner may no longer own it).
		for _, e := range entries {
			res, err := p.node.Lookup(e.ID)
			if err != nil || res.Node.Addr == p.node.Addr() {
				return false
			}
			byDest[res.Node.Addr] = append(byDest[res.Node.Addr], e)
		}
	}
	for _, dest := range sortedDests(byDest) {
		if _, err := p.call(dest, delegateReq{Key: key, Entries: byDest[dest]}); err != nil {
			return false
		}
	}
	p.tel.replRestores.Inc()
	return true
}

// sortedDests lists the destinations of a per-gateway grouping in
// address order: sends must not follow map order, fault injection
// draws randomness per call.
func sortedDests(byDest map[transport.Addr][]IndexEntry) []transport.Addr {
	dests := make([]transport.Addr, 0, len(byDest))
	for dest := range byDest {
		dests = append(dests, dest)
	}
	sort.Slice(dests, func(i, j int) bool { return dests[i] < dests[j] })
	return dests
}

// dropOwnedMeta abandons an owned unit's version line and tells its
// known-current mirrors to discard their copies (the bucket left this
// node without a bookkeeping handoff).
func (p *Peer) dropOwnedMeta(u replication.Unit) {
	if p.mirrors() <= 0 {
		return
	}
	meta, ok := p.repl.DropOwned(u)
	if !ok {
		return
	}
	for _, mv := range meta.Synced {
		p.call(mv.Addr, replicaDropReq{Key: u.Key, Repo: u.Repo, Owner: p.node.Addr()})
	}
}

// SyncReplicas runs one network-wide anti-entropy round, in ring order:
// open a generation everywhere, promote held replicas onto their new
// owners, probe/repair every owned unit's mirror set, then drop the
// replicas no owner claimed. Grow and Shrink end with it; the chaos
// harness calls it at epoch boundaries before checking replica agreement.
func (nw *Network) SyncReplicas() {
	if nw.cfg.Peer.ReplicationFactor <= 1 {
		return
	}
	for _, p := range nw.peers {
		p.BeginReplicaSync()
	}
	for _, p := range nw.peers {
		p.PromoteOwnedReplicas()
	}
	for _, p := range nw.peers {
		p.SyncOwnedReplicas()
	}
	for _, p := range nw.peers {
		p.DropStaleReplicas()
	}
}
