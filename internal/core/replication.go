package core

import (
	"sort"
	"sync"

	"peertrack/internal/ids"
	"peertrack/internal/moods"
	"peertrack/internal/overlay"
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
// The scheme has three legs (see DESIGN.md §13):
//
//   - Synchronous mirroring: every write a gateway applies is pushed to
//     its mirror set at the granularity of the protocol message that
//     caused it (one mirror message per indexing message, not per
//     object). Each unit carries a version (internal/replication); a
//     mirror acknowledges an increment only when it extends the version
//     it holds, so a missed update can never be silently papered over.
//
//   - Deterministic failover: when a query cannot reach a unit's owner,
//     it walks the unit's replica candidates in ring order
//     (chord.LookupSet) and serves from the first live copy. Reads
//     prefer the owner — a mirror is only consulted while the owner is
//     unreachable — so no query observes an empty or stale answer while
//     at least one replica is alive.
//
//   - Anti-entropy repair re-probes every owned unit against the
//     current mirror set with a version check — one small message when
//     the mirror is current, a full state push when it is not —
//     promotes held replicas whose key range this node now owns, and
//     garbage-collects replicas no owner claims. It runs as the replica
//     rows of the maintenance table (maintenance.go) and, in the
//     simulator, as the stop-the-world Network.SyncReplicas after every
//     reconciliation and at chaos epoch boundaries. Gossip death
//     verdicts (AttachGossip) trigger the same promotion immediately,
//     without waiting for a sync round.

// replicatePutReq pushes one incremental index-bucket update to a
// mirror: the entries written and the ids removed by one protocol
// message at the owner. Version is the owner's bucket version after the
// update; the mirror applies it only when it extends the version it
// holds (Current in the response), otherwise the owner schedules a full
// push.
type replicatePutReq struct {
	Key       ids.PrefixKey
	Owner     transport.Addr
	Version   uint64
	Delegated bool
	Entries   []IndexEntry
	Removed   []ids.ID
}

func (r replicatePutReq) WireSize() int {
	n := keyWireSize + len(r.Owner) + 8 + 1 + len(r.Removed)*ids.Bytes
	for _, e := range r.Entries {
		n += e.wireSize()
	}
	return n
}

type replicatePutResp struct{ Current bool }

func (r replicatePutResp) WireSize() int { return 1 }

// replicaSyncReq replaces a mirror's copy of one index bucket wholesale
// (anti-entropy full push).
type replicaSyncReq struct {
	Key       ids.PrefixKey
	Owner     transport.Addr
	Version   uint64
	Delegated bool
	Entries   []IndexEntry
}

func (r replicaSyncReq) WireSize() int {
	n := keyWireSize + len(r.Owner) + 8 + 1
	for _, e := range r.Entries {
		n += e.wireSize()
	}
	return n
}

type replicaSyncResp struct{}

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

func (r replicaQueryResp) WireSize() int {
	n := 1
	for _, e := range r.Entries {
		n += e.wireSize()
	}
	return n
}

// RepoObject is one object's full visit list inside repo mirror pushes.
type RepoObject struct {
	Object moods.ObjectID
	Visits []VisitRecord
}

func sizeOfRepoObjects(objs []RepoObject) int {
	n := 0
	for _, o := range objs {
		n += len(o.Object) + len(o.Visits)*32
	}
	return n
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

func (r repoMirrorReq) WireSize() int { return len(r.Owner) + 9 + sizeOfRepoObjects(r.Objects) }

type repoMirrorResp struct{ Current bool }

func (r repoMirrorResp) WireSize() int { return 1 }

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

func init() {
	transport.Register(replicatePutReq{})
	transport.Register(replicatePutResp{})
	transport.Register(replicaSyncReq{})
	transport.Register(replicaSyncResp{})
	transport.Register(replicaCheckReq{})
	transport.Register(replicaCheckResp{})
	transport.Register(replicaDropReq{})
	transport.Register(replicaDropResp{})
	transport.Register(replicaQueryReq{})
	transport.Register(replicaQueryResp{})
	transport.Register(repoMirrorReq{})
	transport.Register(repoMirrorResp{})
	transport.Register(repoQueryReq{})
	transport.Register(repoQueryResp{})
}

// lookupSetter is the successor-set query failover needs; only the
// Chord overlay provides it (over Kademlia, failover reads degrade to
// today's owner-only behaviour).
type lookupSetter interface {
	LookupSet(key ids.ID, want int) ([]overlay.NodeRef, error)
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

// repoReplicaStore holds the repository copies this node mirrors for
// other owners, keyed by owner address.
type repoReplicaStore struct {
	mu      sync.RWMutex
	byOwner map[transport.Addr]map[moods.ObjectID][]VisitRecord
}

func (s *repoReplicaStore) apply(owner transport.Addr, objs []RepoObject) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.byOwner == nil {
		s.byOwner = make(map[transport.Addr]map[moods.ObjectID][]VisitRecord)
	}
	m := s.byOwner[owner]
	if m == nil {
		m = make(map[moods.ObjectID][]VisitRecord, len(objs))
		s.byOwner[owner] = m
	}
	for _, o := range objs {
		m[o.Object] = append([]VisitRecord(nil), o.Visits...)
	}
}

func (s *repoReplicaStore) replaceAll(owner transport.Addr, objs []RepoObject) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.byOwner == nil {
		s.byOwner = make(map[transport.Addr]map[moods.ObjectID][]VisitRecord)
	}
	m := make(map[moods.ObjectID][]VisitRecord, len(objs))
	for _, o := range objs {
		m[o.Object] = append([]VisitRecord(nil), o.Visits...)
	}
	s.byOwner[owner] = m
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

// dumpOwner returns copies of every object list mirrored for one owner,
// sorted by object (the restore path's wire payload).
func (s *repoReplicaStore) dumpOwner(owner transport.Addr) []RepoObject {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m := s.byOwner[owner]
	out := make([]RepoObject, 0, len(m))
	for obj, vs := range m {
		out = append(out, RepoObject{Object: obj, Visits: append([]VisitRecord(nil), vs...)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Object < out[j].Object })
	return out
}

func (s *repoReplicaStore) dropOwner(owner transport.Addr) {
	s.mu.Lock()
	delete(s.byOwner, owner)
	s.mu.Unlock()
}

func (s *repoReplicaStore) dump() map[transport.Addr]map[moods.ObjectID][]VisitRecord {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[transport.Addr]map[moods.ObjectID][]VisitRecord, len(s.byOwner))
	for owner, m := range s.byOwner {
		cp := make(map[moods.ObjectID][]VisitRecord, len(m))
		for obj, vs := range m {
			cp[obj] = append([]VisitRecord(nil), vs...)
		}
		out[owner] = cp
	}
	return out
}

// --- owner-side write paths -------------------------------------------

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

// replicate mirrors freshly written entries of one bucket.
func (p *Peer) replicate(key ids.PrefixKey, entries []IndexEntry) {
	if p.mirrors() <= 0 || len(entries) == 0 {
		return
	}
	p.mirrorIndex(key, entries, nil)
}

// mirrorRemove mirrors the removal of entries from one bucket
// (delegation evictions, refresh takes).
func (p *Peer) mirrorRemove(key ids.PrefixKey, removed []ids.ID) {
	if p.mirrors() <= 0 || len(removed) == 0 {
		return
	}
	p.mirrorIndex(key, nil, removed)
}

// mirrorIndex bumps the bucket's version and pushes the delta to every
// mirror: an incremental put when the mirror held the previous version,
// a full bucket push otherwise. A mirror that cannot be reached is
// marked unsynced and repaired by the next sync round.
func (p *Peer) mirrorIndex(key ids.PrefixKey, entries []IndexEntry, removed []ids.ID) {
	u := replication.IndexUnit(key)
	v := p.repl.Bump(u)
	delegated := p.gw.delegatedFlag(key)
	self := p.node.Addr()
	for _, addr := range p.mirrorSet() {
		if p.repl.SyncedAt(u, addr) == v-1 {
			resp, err := p.callAddr(addr, replicatePutReq{
				Key: key, Owner: self, Version: v, Delegated: delegated,
				Entries: entries, Removed: removed,
			})
			if err == nil && resp.(replicatePutResp).Current {
				p.repl.MarkSynced(u, addr, v)
				p.tel.replMirrorWrites.Inc()
				continue
			}
			if err != nil {
				p.repl.ClearSynced(u, addr)
				continue
			}
			// The mirror holds some other version (it restarted, or a
			// previous push was lost): repair with a full push right away.
		}
		if !p.pushFullBucket(u, key, addr, v) {
			p.repl.ClearSynced(u, addr)
		}
	}
}

// pushFullBucket ships the bucket's entire current contents to one
// mirror, stamping it at version v.
func (p *Peer) pushFullBucket(u replication.Unit, key ids.PrefixKey, addr transport.Addr, v uint64) bool {
	entries, delegated := p.gw.dumpBucket(key)
	_, err := p.callAddr(addr, replicaSyncReq{
		Key: key, Owner: p.node.Addr(), Version: v, Delegated: delegated, Entries: entries,
	})
	if err != nil {
		return false
	}
	p.repl.MarkSynced(u, addr, v)
	p.tel.replRepairPushes.Inc()
	return true
}

// markRepoDirty queues objects whose local visit lists changed for the
// next repository mirror flush.
func (p *Peer) markRepoDirty(objs ...moods.ObjectID) {
	if p.mirrors() <= 0 {
		return
	}
	p.dirtyMu.Lock()
	if p.dirtyRepo == nil {
		p.dirtyRepo = make(map[moods.ObjectID]struct{}, len(objs))
	}
	for _, o := range objs {
		p.dirtyRepo[o] = struct{}{}
	}
	p.dirtyMu.Unlock()
}

// flushRepoMirror pushes the dirtied visit lists to the repository
// mirrors, batched at the granularity of the triggering protocol
// message (a window flush, or one M2/M3 stitch batch).
func (p *Peer) flushRepoMirror() {
	if p.mirrors() <= 0 {
		return
	}
	p.dirtyMu.Lock()
	dirty := p.dirtyRepo
	p.dirtyRepo = nil
	p.dirtyMu.Unlock()
	if len(dirty) == 0 {
		return
	}
	objs := make([]RepoObject, 0, len(dirty))
	for obj := range dirty {
		if vs, ok := p.repo.get(obj); ok {
			objs = append(objs, RepoObject{Object: obj, Visits: vs})
		}
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].Object < objs[j].Object })
	v := p.repl.Bump(replication.RepoUnit)
	u := replication.RepoUnit
	self := p.node.Addr()
	for _, addr := range p.mirrorSet() {
		if p.repl.SyncedAt(u, addr) == v-1 {
			resp, err := p.callAddr(addr, repoMirrorReq{Owner: self, Version: v, Objects: objs})
			if err == nil && resp.(repoMirrorResp).Current {
				p.repl.MarkSynced(u, addr, v)
				p.tel.replMirrorWrites.Inc()
				continue
			}
			if err != nil {
				p.repl.ClearSynced(u, addr)
				continue
			}
		}
		if !p.pushFullRepo(addr, v) {
			p.repl.ClearSynced(u, addr)
		}
	}
}

// pushFullRepo ships the whole local repository to one mirror at
// version v.
func (p *Peer) pushFullRepo(addr transport.Addr, v uint64) bool {
	snap := p.repo.snapshot()
	objs := make([]RepoObject, 0, len(snap))
	for obj, vs := range snap {
		objs = append(objs, RepoObject{Object: obj, Visits: vs})
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].Object < objs[j].Object })
	_, err := p.callAddr(addr, repoMirrorReq{Owner: p.node.Addr(), Version: v, Full: true, Objects: objs})
	if err != nil {
		return false
	}
	p.repl.MarkSynced(replication.RepoUnit, addr, v)
	p.tel.replRepairPushes.Inc()
	return true
}

// --- mirror-side handlers ---------------------------------------------

// clearDead removes an owner's dead mark: any replication traffic from
// it is proof of life (crashed owners that healed resume probing).
func (p *Peer) clearDead(owner transport.Addr) {
	p.deadMu.Lock()
	delete(p.deadOwners, owner)
	p.deadMu.Unlock()
}

func (p *Peer) ownerDead(owner transport.Addr) bool {
	p.deadMu.Lock()
	defer p.deadMu.Unlock()
	return p.deadOwners[owner]
}

// handleReplicatePut applies one incremental bucket update, accepting
// it only when it extends the version this mirror holds.
func (p *Peer) handleReplicatePut(r replicatePutReq) replicatePutResp {
	if r.Key != individualKey && r.Key.Len() > ids.MaxKeyLen {
		return replicatePutResp{}
	}
	p.clearDead(r.Owner)
	u := replication.IndexUnit(r.Key)
	_, hv, held := p.repl.HeldMeta(u)
	if !(held && hv+1 == r.Version) && !(!held && r.Version == 1) {
		return replicatePutResp{Current: false}
	}
	if r.Key == individualKey {
		for _, e := range r.Entries {
			p.replica.upsertKeyed(individualKey, e)
		}
	} else {
		pfx := r.Key.Prefix()
		for _, e := range r.Entries {
			p.replica.upsert(pfx, e)
		}
	}
	p.replica.removeAll(r.Key, r.Removed)
	if r.Delegated {
		p.replica.markDelegated(r.Key)
	}
	p.repl.RecordHeld(u, r.Owner, r.Version)
	return replicatePutResp{Current: true}
}

// handleReplicaSync replaces this mirror's copy of one bucket.
func (p *Peer) handleReplicaSync(r replicaSyncReq) {
	if r.Key != individualKey && r.Key.Len() > ids.MaxKeyLen {
		return
	}
	p.clearDead(r.Owner)
	p.replica.replaceBucket(r.Key, r.Entries, r.Delegated)
	p.repl.RecordHeld(replication.IndexUnit(r.Key), r.Owner, r.Version)
}

// handleRepoMirror applies one repository mirror push.
func (p *Peer) handleRepoMirror(r repoMirrorReq) repoMirrorResp {
	if r.Owner == p.node.Addr() {
		// A mirror is returning this node's own repository: we came
		// back from a restart with an empty store, stopped probing, and
		// the mirror's GC pass is restoring its copy before dropping
		// it. Adopt the objects we have no record of — anything
		// re-observed since the restart keeps its fresh local history —
		// and re-mirror the adoptions on the next flush.
		var adopted []moods.ObjectID
		for _, o := range r.Objects {
			if p.repo.adopt(o.Object, o.Visits) {
				adopted = append(adopted, o.Object)
			}
		}
		if len(adopted) > 0 {
			p.markRepoDirty(adopted...)
		}
		return repoMirrorResp{Current: true}
	}
	p.clearDead(r.Owner)
	u := repoUnitOf(r.Owner)
	if r.Full {
		p.repoReplica.replaceAll(r.Owner, r.Objects)
		p.repl.RecordHeld(u, r.Owner, r.Version)
		return repoMirrorResp{Current: true}
	}
	_, hv, held := p.repl.HeldMeta(u)
	if !(held && hv+1 == r.Version) && !(!held && r.Version == 1) {
		return repoMirrorResp{Current: false}
	}
	p.repoReplica.apply(r.Owner, r.Objects)
	p.repl.RecordHeld(u, r.Owner, r.Version)
	return repoMirrorResp{Current: true}
}

// handleReplicaCheck answers a version probe.
func (p *Peer) handleReplicaCheck(r replicaCheckReq) replicaCheckResp {
	p.clearDead(r.Owner)
	u := replication.IndexUnit(r.Key)
	if r.Repo {
		u = repoUnitOf(r.Owner)
	}
	return replicaCheckResp{Current: p.repl.CheckHeld(u, r.Owner, r.Version)}
}

// handleReplicaDrop discards this mirror's copy of one unit.
func (p *Peer) handleReplicaDrop(r replicaDropReq) {
	if r.Repo {
		p.repl.DropHeld(repoUnitOf(r.Owner))
		p.repoReplica.dropOwner(r.Owner)
		return
	}
	p.repl.DropHeld(replication.IndexUnit(r.Key))
	p.replica.dropBucket(r.Key)
}

// handleReplicaQuery serves a failover read from whatever copy this
// node has: its own gateway bucket first (it may have been promoted),
// then its replica store. No promotion happens on this path — the
// querier may be racing the owner's recovery.
func (p *Peer) handleReplicaQuery(r replicaQueryReq) replicaQueryResp {
	entries, delegated := p.gw.query(r.Key, r.Objects)
	if len(entries) < len(r.Objects) {
		found := make(map[ids.ID]bool, len(entries))
		for _, e := range entries {
			found[e.ID] = true
		}
		var missing []ids.ID
		for _, id := range r.Objects {
			if !found[id] {
				missing = append(missing, id)
			}
		}
		extra, d2 := p.replica.query(r.Key, missing)
		entries = append(entries, extra...)
		delegated = delegated || d2
	}
	return replicaQueryResp{Entries: entries, Delegated: delegated}
}

// --- failover reads ---------------------------------------------------

// replicaFallthrough serves an index read whose owner is unreachable
// from the next live replica in ring order. ringKey is the DHT key the
// bucket is placed by (the prefix's gateway id, or the object's own
// hashed id under individual indexing); failed is the owner address
// that did not answer.
func (p *Peer) replicaFallthrough(key ids.PrefixKey, ringKey ids.ID, id ids.ID, failed transport.Addr) (IndexEntry, int, bool, bool) {
	hops := 0
	if p.mirrors() <= 0 {
		return IndexEntry{}, hops, false, false
	}
	ls, ok := p.node.(lookupSetter)
	if !ok {
		return IndexEntry{}, hops, false, false
	}
	set, err := ls.LookupSet(ringKey, p.cfg.ReplicationFactor)
	if err != nil {
		return IndexEntry{}, hops, false, false
	}
	delegated := false
	for _, ref := range set {
		if ref.Addr == failed {
			continue
		}
		if ref.Addr == p.node.Addr() {
			resp := p.handleReplicaQuery(replicaQueryReq{Key: key, Objects: []ids.ID{id}})
			delegated = delegated || resp.Delegated
			if len(resp.Entries) > 0 {
				p.tel.replFallthrough.Inc()
				return resp.Entries[0], hops, true, delegated
			}
			continue
		}
		resp, err := p.callAddr(ref.Addr, replicaQueryReq{Key: key, Objects: []ids.ID{id}})
		hops++
		if err != nil {
			continue
		}
		qr := resp.(replicaQueryResp)
		delegated = delegated || qr.Delegated
		if len(qr.Entries) > 0 {
			p.tel.replFallthrough.Inc()
			return qr.Entries[0], hops, true, delegated
		}
	}
	return IndexEntry{}, hops, false, delegated
}

// fetchVisitsRead is fetchVisits with repository failover: when the
// node holding a visit segment is unreachable, the read falls through
// to the mirrors of that node's repository in ring order. Only pure
// reads (locate/trace walks) use it; stitch walks keep the plain
// fetch, because their defer-and-retry contract must see the fault.
func (p *Peer) fetchVisitsRead(node moods.NodeName, obj moods.ObjectID) ([]VisitRecord, int, error) {
	vs, hops, err := p.fetchVisits(node, obj)
	if err == nil {
		return vs, hops, nil
	}
	fvs, h, ok := p.repoFallthrough(node, obj)
	hops += h
	if ok {
		return fvs, hops, nil
	}
	return nil, hops, err
}

// repoFallthrough reads Object's visits at node from the mirrors of
// that node's repository, in ring order.
func (p *Peer) repoFallthrough(node moods.NodeName, obj moods.ObjectID) ([]VisitRecord, int, bool) {
	hops := 0
	if p.mirrors() <= 0 {
		return nil, hops, false
	}
	ls, ok := p.node.(lookupSetter)
	if !ok {
		return nil, hops, false
	}
	owner := transport.Addr(node)
	// A node's repository mirrors sit at its ring successors; its ring
	// position is the hash of its address (chord.New), so the replica
	// candidate set of that position starts at the owner itself.
	set, err := ls.LookupSet(ids.Hash([]byte(owner)), p.cfg.ReplicationFactor)
	if err != nil {
		return nil, hops, false
	}
	for _, ref := range set {
		if ref.Addr == owner {
			continue
		}
		if ref.Addr == p.node.Addr() {
			if vs, ok := p.repoReplica.get(owner, obj); ok {
				p.tel.replFallthrough.Inc()
				return vs, hops, true
			}
			continue
		}
		resp, err := p.callAddr(ref.Addr, repoQueryReq{Owner: owner, Object: obj})
		hops++
		if err != nil {
			continue
		}
		qr := resp.(repoQueryResp)
		if qr.Found {
			p.tel.replFallthrough.Inc()
			return qr.Visits, hops, true
		}
	}
	return nil, hops, false
}

// lookupWithReplica consults the primary store, falling back to the
// replica store; hits whose key range this node owns are promoted so
// subsequent updates see them.
func (p *Peer) lookupWithReplica(key ids.PrefixKey, id ids.ID) (IndexEntry, bool) {
	if e, ok := p.gw.lookup(key, id); ok {
		return e, true
	}
	if p.mirrors() <= 0 {
		return IndexEntry{}, false
	}
	e, ok := p.replica.lookup(key, id)
	if !ok {
		return IndexEntry{}, false
	}
	p.promote(key, []IndexEntry{e})
	return e, true
}

// queryWithReplica is the bulk form used by the queryIndexReq handler.
func (p *Peer) queryWithReplica(key ids.PrefixKey, objs []ids.ID) ([]IndexEntry, bool) {
	entries, delegated := p.gw.query(key, objs)
	if p.mirrors() <= 0 || len(entries) == len(objs) {
		return entries, delegated
	}
	found := make(map[ids.ID]bool, len(entries))
	for _, e := range entries {
		found[e.ID] = true
	}
	var missing []ids.ID
	for _, id := range objs {
		if !found[id] {
			missing = append(missing, id)
		}
	}
	extra, d2 := p.replica.query(key, missing)
	if len(extra) > 0 {
		p.promote(key, extra)
		entries = append(entries, extra...)
		delegated = delegated || d2
	}
	return entries, delegated
}

// promote copies replica records this node now owns into its primary
// store. The ownership gate matters: a mirror serving reads while the
// primary is merely unreachable (crashed but still the ring owner) must
// not hijack the bucket — failover reads serve from the replica store
// directly. Promotion happens once the ring actually makes this node
// the owner (stabilization, or re-wiring after churn).
func (p *Peer) promote(key ids.PrefixKey, entries []IndexEntry) {
	if key == individualKey {
		var kept []IndexEntry
		for _, e := range entries {
			if p.node.Owns(e.ID) {
				p.gw.upsertKeyed(individualKey, e)
				kept = append(kept, e)
			}
		}
		p.replicate(individualKey, kept)
		return
	}
	if key.Len() > ids.MaxKeyLen {
		return
	}
	pfx := key.Prefix()
	if !p.node.Owns(pfx.GatewayID()) {
		return
	}
	for _, e := range entries {
		p.gw.upsert(pfx, e)
	}
	p.replicate(key, entries)
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

// maybePromoteHeld promotes one held unit if this node owns its range.
func (p *Peer) maybePromoteHeld(h replication.HeldInfo) {
	if h.Unit.Repo || h.Owner == p.node.Addr() {
		return
	}
	key := h.Unit.Key
	if key != individualKey && key.Len() > ids.MaxKeyLen {
		return
	}
	if key == individualKey {
		p.promoteHeldIndividual(h)
		return
	}
	if !p.node.Owns(key.Prefix().GatewayID()) {
		return
	}
	entries, delegated := p.replica.drainBucket(key)
	p.repl.DropHeld(h.Unit)
	pfx := key.Prefix()
	for _, e := range entries {
		p.mergeEntry(key, pfx, e)
	}
	if delegated {
		p.gw.markDelegated(key)
	}
	p.tel.replPromotions.Inc()
	if _, owned := p.repl.Version(h.Unit); owned {
		// Merged into an existing owned line: contents changed, force a
		// full re-sync of every mirror.
		p.repl.Bump(h.Unit)
		for _, a := range p.mirrorSet() {
			p.repl.ClearSynced(h.Unit, a)
		}
	} else {
		// Continue the dead owner's version line: the surviving mirrors
		// hold exactly this version, so the coming probe pass claims
		// them without re-shipping data.
		p.repl.AdoptOwned(h.Unit, replication.OwnedMeta{Version: h.Version})
	}
}

// promoteHeldIndividual promotes the per-object records of a dead
// owner's individual bucket that fall in this node's range.
func (p *Peer) promoteHeldIndividual(h replication.HeldInfo) {
	entries, _ := p.replica.drainBucket(individualKey)
	p.repl.DropHeld(h.Unit)
	var kept []IndexEntry
	for _, e := range entries {
		if p.node.Owns(e.ID) {
			p.mergeEntry(individualKey, ids.Prefix{}, e)
			kept = append(kept, e)
		} else {
			// Not ours: keep holding it as a replica.
			p.replica.upsertKeyed(individualKey, e)
		}
	}
	if len(kept) == 0 {
		if len(entries) > 0 {
			p.repl.RecordHeld(h.Unit, h.Owner, h.Version)
		}
		return
	}
	p.tel.replPromotions.Inc()
	if _, owned := p.repl.Version(h.Unit); !owned {
		p.repl.AdoptOwned(h.Unit, replication.OwnedMeta{Version: h.Version})
	}
	p.repl.Bump(h.Unit)
	for _, a := range p.mirrorSet() {
		p.repl.ClearSynced(h.Unit, a)
	}
	if len(entries) > len(kept) {
		p.repl.RecordHeld(h.Unit, h.Owner, h.Version)
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
	self := p.node.Addr()
	for _, u := range p.repl.OwnedUnits() {
		v, ok := p.repl.Version(u)
		if !ok {
			continue
		}
		for _, addr := range mirrors {
			req := replicaCheckReq{Repo: u.Repo, Owner: self, Version: v}
			if !u.Repo {
				req.Key = u.Key
			}
			p.tel.replProbes.Inc()
			resp, err := p.callAddr(addr, req)
			if err != nil {
				p.repl.ClearSynced(u, addr)
				continue
			}
			if resp.(replicaCheckResp).Current {
				p.repl.MarkSynced(u, addr, v)
				continue
			}
			pushed := false
			if u.Repo {
				pushed = p.pushFullRepo(addr, v)
			} else {
				pushed = p.pushFullBucket(u, u.Key, addr, v)
			}
			if !pushed {
				p.repl.ClearSynced(u, addr)
			}
		}
	}
}

// DropStaleReplicas garbage-collects held units no owner probed or
// pushed this sync round — replicas whose owner stopped replicating to
// this node (mirror set moved on, unit handed off elsewhere). Units
// whose recorded owner is marked dead are kept: they may be the last
// surviving copy of a crashed node's data, and failover reads need
// them until promotion or the owner's recovery reclaims them. Units
// with a live owner are shipped back before dropping (restoreHeld):
// an owner that restarted with the same identity lost its stores but
// kept its ring position, and its mirrors' copies are all that's left.
func (p *Peer) DropStaleReplicas() {
	if p.mirrors() <= 0 {
		return
	}
	for _, u := range p.repl.StaleHeld() {
		owner, v, ok := p.repl.HeldMeta(u)
		if !ok {
			continue
		}
		if p.ownerDead(owner) {
			continue
		}
		// The owner is alive yet stopped refreshing this unit. Usually
		// the mirror set moved on and the owner still has the records —
		// but after a restart-with-same-identity the owner came back
		// EMPTY, was never verdicted dead, and this copy may be the
		// last one. Ship it back through the normal write paths before
		// dropping: a duplicate merge is idempotent, and a restore is
		// the difference between garbage collection and data loss. An
		// undeliverable copy is held for another generation instead.
		if !p.restoreHeld(u, owner, v) {
			continue
		}
		p.repl.DropHeld(u)
		if u.Repo {
			p.repoReplica.dropOwner(owner)
		} else {
			p.replica.dropBucket(u.Key)
		}
		p.tel.replDrops.Inc()
	}
}

// restoreHeld ships a stale held unit's contents back to where reads
// will look for them — the owner for repository copies and per-object
// records, the range's current gateway for prefix buckets — and reports
// whether delivery succeeded (only then is the local copy safe to GC).
// Empty units restore trivially.
func (p *Peer) restoreHeld(u replication.Unit, owner transport.Addr, v uint64) bool {
	if u.Repo {
		objs := p.repoReplica.dumpOwner(owner)
		if len(objs) == 0 {
			return true
		}
		if _, err := p.callAddr(owner, repoMirrorReq{Owner: owner, Version: v, Full: true, Objects: objs}); err != nil {
			return false
		}
		p.tel.replRestores.Inc()
		return true
	}
	entries, _ := p.replica.dumpBucket(u.Key)
	if len(entries) == 0 {
		return true
	}
	if u.Key == individualKey {
		// Per-object records re-home individually: each entry goes to
		// its ring successor (the recorded owner may no longer own it).
		byDest := make(map[transport.Addr][]IndexEntry)
		for _, e := range entries {
			res, err := p.node.Lookup(e.ID)
			if err != nil {
				return false
			}
			if res.Node.Addr == p.node.Addr() {
				// Ours now: promotion handles it on the next pass.
				return false
			}
			byDest[res.Node.Addr] = append(byDest[res.Node.Addr], e)
		}
		dests := make([]transport.Addr, 0, len(byDest))
		for dest := range byDest {
			dests = append(dests, dest)
		}
		sort.Slice(dests, func(i, j int) bool { return dests[i] < dests[j] })
		for _, dest := range dests {
			if _, err := p.callAddr(dest, delegateReq{Key: individualKey, Entries: byDest[dest]}); err != nil {
				return false
			}
		}
		p.tel.replRestores.Inc()
		return true
	}
	gwRef, err := p.resolveGateway(u.Key.Prefix())
	if err != nil || gwRef.Addr == p.node.Addr() {
		// Unresolvable, or the range is ours now (promotion handles
		// it): keep the copy.
		return false
	}
	if _, err := p.call(gwRef, delegateReq{Key: u.Key, Entries: entries}); err != nil {
		return false
	}
	p.tel.replRestores.Inc()
	return true
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
	req := replicaDropReq{Repo: u.Repo, Owner: p.node.Addr()}
	if !u.Repo {
		req.Key = u.Key
	}
	for _, mv := range meta.Synced {
		p.callAddr(mv.Addr, req)
	}
}

// SyncReplicas runs one network-wide anti-entropy round, in ring order:
// open a generation everywhere, promote held replicas onto their new
// owners, probe/repair every owned unit's mirror set, then drop the
// replicas no owner claimed. Reconcile calls it after every membership
// or Lp change; the chaos harness calls it at epoch boundaries before
// checking replica agreement.
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

// ReplicaEntries reports how many replica index records this node holds
// (metrics/tests).
func (p *Peer) ReplicaEntries() int { return p.replica.totalEntries() }
