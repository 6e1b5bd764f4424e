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
}

func sizeOfEvents(evs []ObjEvent) int {
	n := 0
	for _, e := range evs {
		n += len(e.Object) + 8
	}
	return n
}

// arriveReq is the individual-indexing message M1 (Section III): node
// Node reports that Object arrived at time Arrived, asking the gateway
// to update the index and stitch the IOP links.
type arriveReq struct {
	Event ObjEvent
	Node  moods.NodeName
}

func (r arriveReq) WireSize() int { return len(r.Event.Object) + len(r.Node) + 8 }

// arriveResp acknowledges M1.
type arriveResp struct{}

// keyWireSize is the on-wire cost of a packed prefix-group key: prefix
// bits and length travel in one 8-byte word (ids.PrefixKey) instead of
// a binary character string.
const keyWireSize = 8

// groupArriveReq is the group-indexing message (Section IV-A2), format
// (group id, (objects), timestamp): all objects of one prefix group that
// arrived at Node within one capture window.
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

func init() {
	transport.Register(arriveReq{})
	transport.Register(arriveResp{})
	transport.Register(groupArriveReq{})
	transport.Register(groupArriveResp{})
	transport.Register(iopSetToReq{})
	transport.Register(iopSetToResp{})
	transport.Register(iopSetFromReq{})
	transport.Register(iopSetFromResp{})
	transport.Register(fetchIndexReq{})
	transport.Register(fetchIndexResp{})
	transport.Register(delegateReq{})
	transport.Register(delegateResp{})
	transport.Register(queryIndexReq{})
	transport.Register(queryIndexResp{})
	transport.Register(iopGetReq{})
	transport.Register(iopGetResp{})
}
