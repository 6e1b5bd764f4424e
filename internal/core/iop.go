package core

import (
	"slices"
	"sort"
	"sync"
	"time"

	"peertrack/internal/moods"
	"peertrack/internal/probe"
	"peertrack/internal/transport"
)

// VisitRecord is one segment of an object's moving path stored at the
// node where the visit happened — the IOP (information of object path)
// properties of the PeerTrack data model: From and To are the
// doubly-linked-list pointers stitched by the gateway (o.from / o.to in
// the paper), and Arrived orders the segments.
type VisitRecord struct {
	Object  moods.ObjectID
	Arrived time.Duration
	From    moods.NodeName // where the object came from; "" = entered the network here
	To      moods.NodeName // where the object left to; "" = still here / unknown
}

// visitWireMin is the fewest bytes a VisitRecord occupies on the wire.
const visitWireMin = 3*stringWireMin + 8

func appendVisitRecord(b []byte, v VisitRecord) []byte {
	b = transport.AppendInt(transport.AppendString(b, v.Object), v.Arrived)
	return transport.AppendString(transport.AppendString(b, v.From), v.To)
}

func readVisitRecord(r *transport.Reader) VisitRecord {
	return VisitRecord{
		Object:  moods.ObjectID(r.String()),
		Arrived: time.Duration(r.Int()),
		From:    moods.NodeName(r.String()),
		To:      moods.NodeName(r.String()),
	}
}

func appendVisitRecords(b []byte, vs []VisitRecord) []byte {
	return transport.AppendSlice(b, vs, appendVisitRecord)
}

func readVisitRecords(r *transport.Reader) []VisitRecord {
	return transport.ReadSlice(r, visitWireMin, readVisitRecord)
}

// visitRec is a VisitRecord as the repository keeps it: without the
// Object field — inside the store the object id is its slot's key — and
// with its IOP links as refs into the peer's nameTable. 16 bytes, no
// pointers.
type visitRec struct {
	Arrived  time.Duration
	From, To nameRef
}

// visitSlot holds one object's visits in time order. The earliest visit
// is inline: most objects are seen at only one or two nodes, so the
// common case stores no per-object slice at all, and a slot is 40
// bytes, its key included.
type visitSlot struct {
	obj   moods.ObjectID
	first visitRec
	later int32 // 1 + the index in repoSlots.later of the visits after first; 0 if none
}

// repoSlots is a repository once it holds a visit: its slots in order
// of first sight, indexed by object, and per object seen more than once
// its visits after the first, sorted by Arrived. Nothing but restore
// deletes from a repository, so a slot's place stays valid.
type repoSlots struct {
	index probe.Table
	slots []visitSlot
	later [][]visitRec
}

// iopStore is a node's local repository: the information-flow segments
// captured inside its own territory, with their IOP links.
type iopStore struct {
	mu    sync.Mutex // not RW: a reader holds it for one probe, as briefly as a writer
	names *nameTable
	a     *repoSlots // nil until the first visit
	n     int

	// dirty, non-nil only when the repository is mirrored, collects the
	// objects whose visit lists changed since the last takeDirty. The
	// mutators mark it themselves, under the lock they already hold, so
	// no caller can forget to.
	dirty map[moods.ObjectID]struct{}
}

// newIOPStore returns an empty repository naming nodes in names; a
// mirrored one tracks which objects changed between mirror flushes.
func newIOPStore(names *nameTable, mirrored bool) *iopStore {
	s := &iopStore{names: names}
	if mirrored {
		s.dirty = make(map[moods.ObjectID]struct{})
	}
	return s
}

// markDirty queues obj for the next mirror flush; s.mu must be held.
func (s *iopStore) markDirty(obj moods.ObjectID) {
	if s.dirty != nil {
		s.dirty[obj] = struct{}{}
	}
}

// takeDirty empties the dirty set, returning the current visit lists of
// its objects sorted by object, and whether it held anything at all: an
// object marked by a setTo that found no visit to annotate contributes
// no list, but the flush it asked for still goes out.
func (s *iopStore) takeDirty() ([]RepoObject, bool) {
	if s.dirty == nil {
		return nil, false // not mirrored; the field is never reassigned
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.dirty) == 0 {
		return nil, false
	}
	objs := make([]RepoObject, 0, len(s.dirty))
	for obj := range s.dirty {
		if slot := s.at(obj); slot != nil {
			objs = append(objs, RepoObject{Object: obj, Visits: s.materialize(*slot)})
		}
	}
	clear(s.dirty)
	sort.Slice(objs, func(i, j int) bool { return objs[i].Object < objs[j].Object })
	return objs, true
}

// slots returns every object's slot in order of first sight; s.mu held.
func (s *iopStore) slots() []visitSlot {
	if s.a == nil {
		return nil
	}
	return s.a.slots
}

// at returns obj's slot, nil if it has none; s.mu must be held.
func (s *iopStore) at(obj moods.ObjectID) *visitSlot {
	if s.a == nil {
		return nil
	}
	i, ok := s.a.index.Find(probe.String(string(obj)), func(i int32) bool { return s.a.slots[i].obj == obj })
	if !ok {
		return nil
	}
	return &s.a.slots[i]
}

// add appends slot, whose object has none yet, and returns it; s.mu
// must be held.
func (s *iopStore) add(slot visitSlot) *visitSlot {
	if s.a == nil {
		s.a = new(repoSlots)
	}
	s.a.index.Insert(probe.String(string(slot.obj)), int32(len(s.a.slots)))
	s.a.slots = append(s.a.slots, slot)
	return &s.a.slots[len(s.a.slots)-1]
}

// rest returns the visits of slot after its first; s.mu must be held.
func (s *iopStore) rest(slot visitSlot) []visitRec {
	if slot.later == 0 {
		return nil
	}
	return s.a.later[slot.later-1]
}

// setRest stores rest as the visits of slot after its first, giving the
// slot its index on first use; s.mu must be held.
func (s *iopStore) setRest(slot *visitSlot, rest []visitRec) {
	if slot.later == 0 {
		s.a.later = append(s.a.later, rest)
		slot.later = int32(len(s.a.later))
		return
	}
	s.a.later[slot.later-1] = rest
}

// record adds a local capture (From/To unknown yet).
func (s *iopStore) record(obj moods.ObjectID, arrived time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.markDirty(obj)
	s.n++
	nv := visitRec{Arrived: arrived}
	slot := s.at(obj)
	if slot == nil {
		s.add(visitSlot{obj: obj, first: nv})
		return
	}
	rest := s.rest(*slot)
	if arrived < slot.first.Arrived {
		// New earliest visit: the old first moves to the front of rest.
		rest = slices.Insert(rest, 0, slot.first)
		slot.first = nv
	} else {
		i := sort.Search(len(rest), func(i int) bool { return rest[i].Arrived > arrived })
		rest = slices.Insert(rest, i, nv)
	}
	s.setRest(slot, rest)
}

// setFrom annotates the visit at time at (or the latest visit if no
// exact match) with the origin node.
func (s *iopStore) setFrom(obj moods.ObjectID, from moods.NodeName, at time.Duration) {
	ref := s.names.ref(from)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.markDirty(obj)
	slot := s.at(obj)
	if slot == nil {
		// The IOP link can arrive before the local capture record in a
		// real network; create the visit so the link is not lost.
		s.add(visitSlot{obj: obj, first: visitRec{Arrived: at, From: ref}})
		s.n++
		return
	}
	rest := s.rest(*slot)
	for i := len(rest) - 1; i >= 0; i-- {
		if rest[i].Arrived == at {
			rest[i].From = ref
			return
		}
	}
	if slot.first.Arrived == at || len(rest) == 0 {
		slot.first.From = ref
	} else {
		rest[len(rest)-1].From = ref
	}
}

// setTo annotates the latest visit that started at or before the
// departure with the destination node the object moved on to, and
// returns that visit's arrival: the dwell anchor of the departure. With
// no such visit it annotates the latest one and reports no anchor.
func (s *iopStore) setTo(obj moods.ObjectID, to moods.NodeName, at time.Duration) (time.Duration, bool) {
	ref := s.names.ref(to)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.markDirty(obj)
	slot := s.at(obj)
	if slot == nil {
		return 0, false
	}
	rest := s.rest(*slot)
	for i := len(rest) - 1; i >= 0; i-- {
		if rest[i].Arrived <= at {
			rest[i].To = ref
			return rest[i].Arrived, true
		}
	}
	if slot.first.Arrived <= at {
		slot.first.To = ref
		return slot.first.Arrived, true
	}
	if n := len(rest); n > 0 {
		rest[n-1].To = ref
	} else {
		slot.first.To = ref
	}
	return 0, false
}

// get returns copies of the visits of obj, time-sorted.
func (s *iopStore) get(obj moods.ObjectID) ([]VisitRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	slot := s.at(obj)
	if slot == nil {
		return nil, false
	}
	return s.materialize(*slot), true
}

// latest returns the newest visit of the slot; s.mu must be held.
func (s *iopStore) latest(slot visitSlot) visitRec {
	if rest := s.rest(slot); len(rest) > 0 {
		return rest[len(rest)-1]
	}
	return slot.first
}

// materialize returns the slot's visits as VisitRecords, naming their
// nodes; s.mu must be held.
func (s *iopStore) materialize(slot visitSlot) []VisitRecord {
	rest := s.rest(slot)
	out := make([]VisitRecord, 0, 1+len(rest))
	out = append(out, s.recordOf(slot.obj, slot.first))
	for _, r := range rest {
		out = append(out, s.recordOf(slot.obj, r))
	}
	return out
}

// recordOf is v as the VisitRecord of obj.
func (s *iopStore) recordOf(obj moods.ObjectID, v visitRec) VisitRecord {
	return VisitRecord{Object: obj, Arrived: v.Arrived, From: s.names.name(v.From), To: s.names.name(v.To)}
}

// recOf is v as the repository keeps it, interning its node names.
func (s *iopStore) recOf(v VisitRecord) visitRec {
	return visitRec{Arrived: v.Arrived, From: s.names.ref(v.From), To: s.names.ref(v.To)}
}

// has reports whether this node has observed obj.
func (s *iopStore) has(obj moods.ObjectID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.at(obj) != nil
}

// len returns the number of visit records stored.
func (s *iopStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// snapshot materializes every object's visit list (persistence).
func (s *iopStore) snapshot() map[moods.ObjectID][]VisitRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[moods.ObjectID][]VisitRecord, len(s.slots()))
	for _, slot := range s.slots() {
		out[slot.obj] = s.materialize(slot)
	}
	return out
}

// adopt inserts an object's visit history only when the store has no
// slot for it at all. The replica-restore path uses it after a
// restart-with-same-identity: returned history fills the holes, while
// objects the reborn node has already re-observed keep their fresh
// local records. Returns whether the history was adopted.
func (s *iopStore) adopt(obj moods.ObjectID, vs []VisitRecord) bool {
	if len(vs) == 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.at(obj) != nil {
		return false
	}
	s.addAll(obj, vs)
	s.markDirty(obj)
	return true
}

// addAll adds obj's slot from a non-empty, time-sorted visit list; obj
// has none yet, and s.mu must be held.
func (s *iopStore) addAll(obj moods.ObjectID, vs []VisitRecord) {
	slot := s.add(visitSlot{obj: obj, first: s.recOf(vs[0])})
	if len(vs) > 1 {
		rest := make([]visitRec, 0, len(vs)-1)
		for _, v := range vs[1:] {
			rest = append(rest, s.recOf(v))
		}
		s.setRest(slot, rest)
	}
	s.n += len(vs)
}

// restore replaces the store contents with objs; an object listed twice
// keeps its first list.
func (s *iopStore) restore(objs []RepoObject) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.a, s.n = nil, 0
	for _, o := range objs {
		if len(o.Visits) > 0 && s.at(o.Object) == nil {
			s.addAll(o.Object, o.Visits)
		}
	}
}
