package core

import (
	"time"

	"peertrack/internal/ids"
	"peertrack/internal/moods"
	"peertrack/internal/replication"
	"peertrack/internal/transport"
)

// ObjEvent is one object arrival carried inside indexing messages.
type ObjEvent struct {
	Object  moods.ObjectID
	Arrived time.Duration
	// id is Object.Hash() when the reporter had to compute it anyway — to
	// group the event or to look its gateway up — so that a gateway in the
	// same process does not hash the object a second time. It is no part
	// of the message: AppendWire and WireSize leave it out, and an event
	// decoded from a frame has it zero.
	id ids.ID
}

// hash returns the object's position in the identifier space: the id
// the reporter attached, or SHA-1 of the raw id when none travelled.
func (e ObjEvent) hash() ids.ID {
	if e.id.IsZero() {
		return e.Object.Hash()
	}
	return e.id
}

func sizeOfEvents(evs []ObjEvent) int {
	n := 0
	for _, e := range evs {
		n += len(e.Object) + 8
	}
	return n
}

// keyWireSize is the on-wire cost of a packed prefix-group key: prefix
// bits and length travel in one 8-byte word (ids.PrefixKey) instead of
// a binary character string.
const keyWireSize = 8

// groupArriveReq is the group-indexing message (Section IV-A2), format
// (group id, (objects), timestamp): all objects of one prefix group that
// arrived at Node within one capture window. Individual indexing's M1
// (Section III) is this message with one event, keyed individualKey.
type groupArriveReq struct {
	Key    ids.PrefixKey // packed group prefix, the group id
	Events []ObjEvent
	Node   moods.NodeName
	At     time.Duration
}

func (r groupArriveReq) WireSize() int {
	return keyWireSize + len(r.Node) + 8 + sizeOfEvents(r.Events)
}

// groupArriveResp acknowledges a group indexing message. Deferred
// returns the late-reported events the gateway could not yet stitch
// into their objects' IOP lists because a chain segment was unreachable
// (see stitchInsert); the reporting node re-buffers them and retries at
// its next window flush.
type groupArriveResp struct {
	Deferred []ObjEvent
}

func (r groupArriveResp) WireSize() int { return sizeOfEvents(r.Deferred) }

// iopSetToReq is message M2: the gateway tells the previous node that
// each object has moved on (sets o.to = To there).
type iopSetToReq struct {
	Objects []moods.ObjectID
	To      moods.NodeName
	At      time.Duration
}

func (r iopSetToReq) WireSize() int {
	n := len(r.To) + 8
	for _, o := range r.Objects {
		n += len(o)
	}
	return n
}

type iopSetToResp struct{}

// iopSetFromReq is message M3: the gateway tells the destination node
// where each object came from (sets o.from there). Objects new to the
// network get From == "".
type iopSetFromReq struct {
	Links []IOPLink
}

func (r iopSetFromReq) WireSize() int {
	n := 0
	for _, l := range r.Links {
		n += len(l.Object) + len(l.From) + 8
	}
	return n
}

// IOPLink tells a node the origin of one object it captured.
type IOPLink struct {
	Object moods.ObjectID
	From   moods.NodeName
	At     time.Duration // arrival time of the visit being annotated
}

type iopSetFromResp struct{}

// fetchIndexReq retrieves (and removes — move semantics) the index
// records a gateway holds for the given objects under the given prefix.
// Used by refresh_from_ascent / refresh_from_descent to pull records to
// the current gateway after Lp changes.
type fetchIndexReq struct {
	Key     ids.PrefixKey
	Objects []ids.ID
}

func (r fetchIndexReq) WireSize() int { return keyWireSize + len(r.Objects)*ids.Bytes }

type fetchIndexResp struct {
	Entries []IndexEntry
	// Delegated reports whether the queried bucket has ever delegated
	// records to its children, bounding descent recursion.
	Delegated bool
}

func (r fetchIndexResp) WireSize() int { return 1 + sizeOfEntries(r.Entries) }

// delegateReq pushes index records from a Data Triangle parent to one of
// its children (or, during split/merge, between old and new gateways).
// MetaVersion/MetaSynced, when set, transfer the bucket's replication
// bookkeeping along with the records (whole-bucket handoff): the
// receiver adopts the version line and claims the existing mirror
// copies by probe instead of re-replicating (see replication.go).
type delegateReq struct {
	Key         ids.PrefixKey // the receiving bucket's key
	Entries     []IndexEntry
	MetaVersion uint64
	MetaSynced  []replication.MirrorVersion
}

func (r delegateReq) WireSize() int {
	n := keyWireSize + 8 + sizeOfEntries(r.Entries)
	for _, mv := range r.MetaSynced {
		n += len(mv.Addr) + 8
	}
	return n
}

type delegateResp struct{}

// queryIndexReq asks a gateway for the index records of the given
// objects under prefix (read-only; the lookup path).
type queryIndexReq struct {
	Key     ids.PrefixKey
	Objects []ids.ID
}

func (r queryIndexReq) WireSize() int { return keyWireSize + len(r.Objects)*ids.Bytes }

type queryIndexResp struct {
	Entries   []IndexEntry
	Delegated bool
}

func (r queryIndexResp) WireSize() int { return 1 + sizeOfEntries(r.Entries) }

// iopGetReq asks a node for its locally stored visits of an object (the
// trace-walk step).
type iopGetReq struct {
	Object moods.ObjectID
}

func (r iopGetReq) WireSize() int { return len(r.Object) }

type iopGetResp struct {
	Visits []VisitRecord
	Found  bool
}

func (r iopGetResp) WireSize() int { return 1 + len(r.Visits)*32 }

// The tag table of every core message that crosses TCP
// (transport.RegisterLayout), append-only: a released tag is never
// renumbered or reused. Each layout is written next to its type: fields
// in declaration order, element encoders (ObjEvent, IOPLink, IndexEntry,
// VisitRecord, RepoObject, …) beside the element type.
func init() {
	// messages.go (0x0200–0x0201, individual indexing's own M1, retired)
	transport.RegisterLayout(0x0202, readGroupArriveReq)
	transport.RegisterLayout(0x0203, readGroupArriveResp)
	transport.RegisterLayout(0x0204, readIOPSetToReq)
	transport.RegisterLayout(0x0205, transport.ReadEmpty[iopSetToResp])
	transport.RegisterLayout(0x0206, readIOPSetFromReq)
	transport.RegisterLayout(0x0207, transport.ReadEmpty[iopSetFromResp])
	transport.RegisterLayout(0x0208, readFetchIndexReq)
	transport.RegisterLayout(0x0209, readFetchIndexResp)
	transport.RegisterLayout(0x020a, readDelegateReq)
	transport.RegisterLayout(0x020b, transport.ReadEmpty[delegateResp])
	transport.RegisterLayout(0x020c, readQueryIndexReq)
	transport.RegisterLayout(0x020d, readQueryIndexResp)
	transport.RegisterLayout(0x020e, readIOPGetReq)
	transport.RegisterLayout(0x020f, readIOPGetResp)
	// 0x0210–0x0213 are retired (the remote inventory and dwell-statistics
	// queries): never reused.
	// containment.go
	transport.RegisterLayout(0x0214, readContainPutReq)
	transport.RegisterLayout(0x0215, transport.ReadEmpty[containPutResp])
	transport.RegisterLayout(0x0216, readContainGetReq)
	transport.RegisterLayout(0x0217, readContainGetResp)
	// predict.go
	transport.RegisterLayout(0x0218, transport.ReadEmpty[transModelReq])
	transport.RegisterLayout(0x0219, readTransModelResp)
	// routed.go
	transport.RegisterLayout(0x021a, readRoutedTraceReq)
	transport.RegisterLayout(0x021b, readRoutedTraceResp)
	// replication.go
	transport.RegisterLayout(0x021c, readReplicatePutReq)
	transport.RegisterLayout(0x021d, readMirrorResp)
	transport.RegisterLayout(0x021e, readReplicaCheckReq)
	transport.RegisterLayout(0x021f, readReplicaCheckResp)
	transport.RegisterLayout(0x0220, readReplicaDropReq)
	transport.RegisterLayout(0x0221, transport.ReadEmpty[replicaDropResp])
	transport.RegisterLayout(0x0222, readReplicaQueryReq)
	transport.RegisterLayout(0x0223, readReplicaQueryResp)
	transport.RegisterLayout(0x0224, readRepoMirrorReq)
	transport.RegisterLayout(0x0225, readRepoQueryReq)
	transport.RegisterLayout(0x0226, readRepoQueryResp)
}

// Fewest wire bytes of the elements slices carry (transport.ReadSlice).
const (
	stringWireMin = 2
	eventWireMin  = stringWireMin + 8
	linkWireMin   = 2*stringWireMin + 8
)

func appendEvent(b []byte, e ObjEvent) []byte {
	return transport.AppendInt(transport.AppendString(b, e.Object), e.Arrived)
}

func readEvent(r *transport.Reader) ObjEvent {
	return ObjEvent{Object: moods.ObjectID(r.String()), Arrived: time.Duration(r.Int())}
}

func appendIDs(b []byte, s []ids.ID) []byte { return transport.AppendSlice(b, s, transport.AppendID) }

func readIDs(r *transport.Reader) []ids.ID {
	return transport.ReadSlice(r, ids.Bytes, (*transport.Reader).ID)
}

func (m groupArriveReq) AppendWire(b []byte) []byte {
	b = transport.AppendInt(b, m.Key)
	b = transport.AppendSlice(b, m.Events, appendEvent)
	return transport.AppendInt(transport.AppendString(b, m.Node), m.At)
}

func readGroupArriveReq(r *transport.Reader) groupArriveReq {
	return groupArriveReq{
		Key:    r.PrefixKey(),
		Events: transport.ReadSlice(r, eventWireMin, readEvent),
		Node:   moods.NodeName(r.String()),
		At:     time.Duration(r.Int()),
	}
}

func (m groupArriveResp) AppendWire(b []byte) []byte {
	return transport.AppendSlice(b, m.Deferred, appendEvent)
}

func readGroupArriveResp(r *transport.Reader) groupArriveResp {
	return groupArriveResp{Deferred: transport.ReadSlice(r, eventWireMin, readEvent)}
}

func (m iopSetToReq) AppendWire(b []byte) []byte {
	b = transport.AppendSlice(b, m.Objects, transport.AppendString[moods.ObjectID])
	return transport.AppendInt(transport.AppendString(b, m.To), m.At)
}

func readIOPSetToReq(r *transport.Reader) iopSetToReq {
	return iopSetToReq{
		Objects: transport.ReadSlice(r, stringWireMin, transport.ReadString[moods.ObjectID]),
		To:      moods.NodeName(r.String()),
		At:      time.Duration(r.Int()),
	}
}

func (iopSetToResp) AppendWire(b []byte) []byte { return b }

func appendLink(b []byte, l IOPLink) []byte {
	return transport.AppendInt(transport.AppendString(transport.AppendString(b, l.Object), l.From), l.At)
}

func readLink(r *transport.Reader) IOPLink {
	return IOPLink{Object: moods.ObjectID(r.String()), From: moods.NodeName(r.String()), At: time.Duration(r.Int())}
}

func (m iopSetFromReq) AppendWire(b []byte) []byte {
	return transport.AppendSlice(b, m.Links, appendLink)
}

func readIOPSetFromReq(r *transport.Reader) iopSetFromReq {
	return iopSetFromReq{Links: transport.ReadSlice(r, linkWireMin, readLink)}
}

func (iopSetFromResp) AppendWire(b []byte) []byte { return b }

func (m fetchIndexReq) AppendWire(b []byte) []byte {
	return appendIDs(transport.AppendInt(b, m.Key), m.Objects)
}

func readFetchIndexReq(r *transport.Reader) fetchIndexReq {
	return fetchIndexReq{Key: r.PrefixKey(), Objects: readIDs(r)}
}

func (m fetchIndexResp) AppendWire(b []byte) []byte {
	return transport.AppendBool(appendEntries(b, m.Entries), m.Delegated)
}

func readFetchIndexResp(r *transport.Reader) fetchIndexResp {
	return fetchIndexResp{Entries: readEntries(r), Delegated: r.Bool()}
}

func appendMirrorVersion(b []byte, mv replication.MirrorVersion) []byte {
	return transport.AppendInt(transport.AppendString(b, mv.Addr), mv.Version)
}

func readMirrorVersion(r *transport.Reader) replication.MirrorVersion {
	return replication.MirrorVersion{Addr: transport.Addr(r.String()), Version: r.U64()}
}

func (m delegateReq) AppendWire(b []byte) []byte {
	b = appendEntries(transport.AppendInt(b, m.Key), m.Entries)
	return transport.AppendSlice(transport.AppendInt(b, m.MetaVersion), m.MetaSynced, appendMirrorVersion)
}

func readDelegateReq(r *transport.Reader) delegateReq {
	return delegateReq{
		Key:         r.PrefixKey(),
		Entries:     readEntries(r),
		MetaVersion: r.U64(),
		MetaSynced:  transport.ReadSlice(r, stringWireMin+8, readMirrorVersion),
	}
}

func (delegateResp) AppendWire(b []byte) []byte { return b }

func (m queryIndexReq) AppendWire(b []byte) []byte {
	return appendIDs(transport.AppendInt(b, m.Key), m.Objects)
}

func readQueryIndexReq(r *transport.Reader) queryIndexReq {
	return queryIndexReq{Key: r.PrefixKey(), Objects: readIDs(r)}
}

func (m queryIndexResp) AppendWire(b []byte) []byte {
	return transport.AppendBool(appendEntries(b, m.Entries), m.Delegated)
}

func readQueryIndexResp(r *transport.Reader) queryIndexResp {
	return queryIndexResp{Entries: readEntries(r), Delegated: r.Bool()}
}

func (m iopGetReq) AppendWire(b []byte) []byte { return transport.AppendString(b, m.Object) }

func readIOPGetReq(r *transport.Reader) iopGetReq {
	return iopGetReq{Object: moods.ObjectID(r.String())}
}

func (m iopGetResp) AppendWire(b []byte) []byte {
	return transport.AppendBool(appendVisitRecords(b, m.Visits), m.Found)
}

func readIOPGetResp(r *transport.Reader) iopGetResp {
	return iopGetResp{Visits: readVisitRecords(r), Found: r.Bool()}
}
