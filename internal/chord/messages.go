package chord

import (
	"peertrack/internal/ids"
	"peertrack/internal/transport"
)

// NodeRef identifies a Chord node: its position on the ring and its
// transport address. The gossip layer names its members by it too, on
// the wire in the layout AppendRef writes.
type NodeRef struct {
	ID   ids.ID
	Addr transport.Addr
}

// IsZero reports whether the reference is unset.
func (r NodeRef) IsZero() bool { return r.Addr == "" }

// Equal reports whether two references denote the same node.
func (r NodeRef) Equal(o NodeRef) bool { return r.Addr == o.Addr && r.ID == o.ID }

// RefWireMin is the fewest bytes a NodeRef occupies on the wire.
const RefWireMin = ids.Bytes + 2

// AppendRef appends r's wire layout: the id's raw bytes, then the address.
func AppendRef(b []byte, r NodeRef) []byte {
	return transport.AppendString(transport.AppendID(b, r.ID), r.Addr)
}

// ReadRef reads what AppendRef wrote.
func ReadRef(r *transport.Reader) NodeRef {
	return NodeRef{ID: r.ID(), Addr: transport.Addr(r.String())}
}

// pingReq checks liveness.
type pingReq struct{}

// pingResp answers a ping with the node's self reference.
type pingResp struct{ Self NodeRef }

// getStateReq asks a node for its successor list and predecessor, used
// by stabilization and by iterative lookup's final step.
type getStateReq struct{}

type getStateResp struct {
	Self       NodeRef
	Successors []NodeRef
	Pred       NodeRef
}

// closestPrecedingReq asks for the finger closest to Key that strictly
// precedes it, the core step of iterative Chord lookup.
type closestPrecedingReq struct{ Key ids.ID }

type closestPrecedingResp struct {
	// Node is the best next hop. If Done, Node is already the successor
	// responsible for Key and the lookup can stop.
	Node NodeRef
	Done bool
}

// notifyReq tells a node that the sender believes it is the node's
// predecessor (Chord's notify()).
type notifyReq struct{ Candidate NodeRef }

type notifyResp struct{}

// leaveReq announces a voluntary departure. Sent to the successor (with
// the leaver's predecessor, so the successor can adopt it) and to the
// predecessor (with the leaver's successor list).
type leaveReq struct {
	Leaver     NodeRef
	Pred       NodeRef   // set when sent to the successor
	Successors []NodeRef // set when sent to the predecessor
}

type leaveResp struct{}

// The wire layouts (transport.RegisterLayout): fields in declaration
// order. The tag table is append-only — a released tag is never
// renumbered or reused.
func init() {
	transport.RegisterLayout(0x0100, transport.ReadEmpty[pingReq])
	transport.RegisterLayout(0x0101, readPingResp)
	transport.RegisterLayout(0x0102, transport.ReadEmpty[getStateReq])
	transport.RegisterLayout(0x0103, readGetStateResp)
	transport.RegisterLayout(0x0104, readClosestPrecedingReq)
	transport.RegisterLayout(0x0105, readClosestPrecedingResp)
	transport.RegisterLayout(0x0106, readNotifyReq)
	transport.RegisterLayout(0x0107, transport.ReadEmpty[notifyResp])
	transport.RegisterLayout(0x0108, readLeaveReq)
	transport.RegisterLayout(0x0109, transport.ReadEmpty[leaveResp])
}

func (pingReq) AppendWire(b []byte) []byte     { return b }
func (getStateReq) AppendWire(b []byte) []byte { return b }
func (notifyResp) AppendWire(b []byte) []byte  { return b }
func (leaveResp) AppendWire(b []byte) []byte   { return b }

func (m pingResp) AppendWire(b []byte) []byte { return AppendRef(b, m.Self) }

func readPingResp(r *transport.Reader) pingResp { return pingResp{Self: ReadRef(r)} }

func (m getStateResp) AppendWire(b []byte) []byte {
	b = AppendRef(b, m.Self)
	b = transport.AppendSlice(b, m.Successors, AppendRef)
	return AppendRef(b, m.Pred)
}

func readGetStateResp(r *transport.Reader) getStateResp {
	return getStateResp{
		Self:       ReadRef(r),
		Successors: transport.ReadSlice(r, RefWireMin, ReadRef),
		Pred:       ReadRef(r),
	}
}

func (m closestPrecedingReq) AppendWire(b []byte) []byte { return transport.AppendID(b, m.Key) }

func readClosestPrecedingReq(r *transport.Reader) closestPrecedingReq {
	return closestPrecedingReq{Key: r.ID()}
}

func (m closestPrecedingResp) AppendWire(b []byte) []byte {
	return transport.AppendBool(AppendRef(b, m.Node), m.Done)
}

func readClosestPrecedingResp(r *transport.Reader) closestPrecedingResp {
	return closestPrecedingResp{Node: ReadRef(r), Done: r.Bool()}
}

func (m notifyReq) AppendWire(b []byte) []byte { return AppendRef(b, m.Candidate) }

func readNotifyReq(r *transport.Reader) notifyReq { return notifyReq{Candidate: ReadRef(r)} }

func (m leaveReq) AppendWire(b []byte) []byte {
	b = AppendRef(b, m.Leaver)
	b = AppendRef(b, m.Pred)
	return transport.AppendSlice(b, m.Successors, AppendRef)
}

func readLeaveReq(r *transport.Reader) leaveReq {
	return leaveReq{
		Leaver:     ReadRef(r),
		Pred:       ReadRef(r),
		Successors: transport.ReadSlice(r, RefWireMin, ReadRef),
	}
}
