package core

import (
	"sort"
	"sync"
	"time"

	"peertrack/internal/moods"
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

// visitRec is a VisitRecord without the Object field: inside the store
// the object id is the map key, so repeating it per visit would waste a
// string header per record.
type visitRec struct {
	Arrived time.Duration
	From    moods.NodeName
	To      moods.NodeName
}

// visitSlot holds one object's visits in time order. The earliest visit
// is inline: most objects are seen at only one or two nodes, so the
// common case stores no per-object slice at all.
type visitSlot struct {
	first visitRec
	rest  []visitRec // visits after first, sorted by Arrived; nil if none
}

// iopStore is a node's local repository: the information-flow segments
// captured inside its own territory, with their IOP links.
type iopStore struct {
	mu     sync.Mutex // not RW: a reader holds it for one probe, as briefly as a writer
	visits map[moods.ObjectID]visitSlot
	n      int

	// dirty, non-nil only when the repository is mirrored, collects the
	// objects whose visit lists changed since the last takeDirty. The
	// mutators mark it themselves, under the lock they already hold, so
	// no caller can forget to.
	dirty map[moods.ObjectID]struct{}
}

// newIOPStore returns an empty repository; a mirrored one tracks which
// objects changed between mirror flushes.
func newIOPStore(mirrored bool) *iopStore {
	s := &iopStore{}
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
		if slot, ok := s.visits[obj]; ok {
			objs = append(objs, RepoObject{Object: obj, Visits: slot.materialize(obj)})
		}
	}
	clear(s.dirty)
	sort.Slice(objs, func(i, j int) bool { return objs[i].Object < objs[j].Object })
	return objs, true
}

func (s *iopStore) slotFor(obj moods.ObjectID, v visitRec) {
	if s.visits == nil {
		s.visits = make(map[moods.ObjectID]visitSlot)
	}
	s.visits[obj] = visitSlot{first: v}
	s.n++
}

// record adds a local capture (From/To unknown yet).
func (s *iopStore) record(obj moods.ObjectID, arrived time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.markDirty(obj)
	slot, ok := s.visits[obj]
	nv := visitRec{Arrived: arrived}
	if !ok {
		s.slotFor(obj, nv)
		return
	}
	if arrived < slot.first.Arrived {
		// New earliest visit: the old first moves to the front of rest.
		slot.rest = append(slot.rest, visitRec{})
		copy(slot.rest[1:], slot.rest)
		slot.rest[0] = slot.first
		slot.first = nv
	} else {
		i := sort.Search(len(slot.rest), func(i int) bool { return slot.rest[i].Arrived > arrived })
		slot.rest = append(slot.rest, visitRec{})
		copy(slot.rest[i+1:], slot.rest[i:])
		slot.rest[i] = nv
	}
	s.visits[obj] = slot
	s.n++
}

// setFrom annotates the visit at time at (or the latest visit if no
// exact match) with the origin node.
func (s *iopStore) setFrom(obj moods.ObjectID, from moods.NodeName, at time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.markDirty(obj)
	slot, ok := s.visits[obj]
	if !ok {
		// The IOP link can arrive before the local capture record in a
		// real network; create the visit so the link is not lost.
		s.slotFor(obj, visitRec{Arrived: at, From: from})
		return
	}
	for i := len(slot.rest) - 1; i >= 0; i-- {
		if slot.rest[i].Arrived == at {
			slot.rest[i].From = from
			return
		}
	}
	if slot.first.Arrived == at {
		slot.first.From = from
		s.visits[obj] = slot
		return
	}
	if n := len(slot.rest); n > 0 {
		slot.rest[n-1].From = from
	} else {
		slot.first.From = from
		s.visits[obj] = slot
	}
}

// setTo annotates the latest visit that started at or before the
// departure with the destination node the object moved on to, and
// returns that visit's arrival: the dwell anchor of the departure. With
// no such visit it annotates the latest one and reports no anchor.
func (s *iopStore) setTo(obj moods.ObjectID, to moods.NodeName, at time.Duration) (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.markDirty(obj)
	slot, ok := s.visits[obj]
	if !ok {
		return 0, false
	}
	for i := len(slot.rest) - 1; i >= 0; i-- {
		if slot.rest[i].Arrived <= at {
			slot.rest[i].To = to
			return slot.rest[i].Arrived, true
		}
	}
	if slot.first.Arrived <= at {
		slot.first.To = to
		s.visits[obj] = slot
		return slot.first.Arrived, true
	}
	if n := len(slot.rest); n > 0 {
		slot.rest[n-1].To = to
	} else {
		slot.first.To = to
		s.visits[obj] = slot
	}
	return 0, false
}

// get returns copies of the visits of obj, time-sorted.
func (s *iopStore) get(obj moods.ObjectID) ([]VisitRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	slot, ok := s.visits[obj]
	if !ok {
		return nil, false
	}
	return slot.materialize(obj), true
}

// latest returns the newest visit of the slot.
func (v visitSlot) latest() visitRec {
	if n := len(v.rest); n > 0 {
		return v.rest[n-1]
	}
	return v.first
}

func (v visitSlot) materialize(obj moods.ObjectID) []VisitRecord {
	out := make([]VisitRecord, 0, 1+len(v.rest))
	out = append(out, VisitRecord{Object: obj, Arrived: v.first.Arrived, From: v.first.From, To: v.first.To})
	for _, r := range v.rest {
		out = append(out, VisitRecord{Object: obj, Arrived: r.Arrived, From: r.From, To: r.To})
	}
	return out
}

// has reports whether this node has observed obj.
func (s *iopStore) has(obj moods.ObjectID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.visits[obj]
	return ok
}

// len returns the number of visit records stored.
func (s *iopStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// objects returns the number of distinct objects with local records.
func (s *iopStore) objects() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.visits)
}

// snapshot materializes every object's visit list (persistence).
func (s *iopStore) snapshot() map[moods.ObjectID][]VisitRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[moods.ObjectID][]VisitRecord, len(s.visits))
	for obj, slot := range s.visits {
		out[obj] = slot.materialize(obj)
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
	if _, ok := s.visits[obj]; ok {
		return false
	}
	if s.visits == nil {
		s.visits = make(map[moods.ObjectID]visitSlot)
	}
	s.visits[obj] = slotOf(vs)
	s.n += len(vs)
	s.markDirty(obj)
	return true
}

// slotOf packs a non-empty, time-sorted visit list into a slot.
func slotOf(vs []VisitRecord) visitSlot {
	slot := visitSlot{first: visitRec{Arrived: vs[0].Arrived, From: vs[0].From, To: vs[0].To}}
	if len(vs) > 1 {
		slot.rest = make([]visitRec, 0, len(vs)-1)
		for _, v := range vs[1:] {
			slot.rest = append(slot.rest, visitRec{Arrived: v.Arrived, From: v.From, To: v.To})
		}
	}
	return slot
}

// restore replaces the store contents from a snapshot (visit lists must
// be time-sorted, as snapshot produces them).
func (s *iopStore) restore(m map[moods.ObjectID][]VisitRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.visits = make(map[moods.ObjectID]visitSlot, len(m))
	s.n = 0
	for obj, vs := range m {
		if len(vs) == 0 {
			continue
		}
		s.visits[obj] = slotOf(vs)
		s.n += len(vs)
	}
}
