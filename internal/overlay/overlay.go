// Package overlay defines the DHT node the traceability layer is
// written against, and the node reference the overlay protocols share
// on the wire. The paper presents its approach as "built on top of the
// DHT based overlay network" and evaluates it on Chord; internal/chord
// is the one implementation. The interface lets a test stand a wrapped
// node in for a peer's.
package overlay

import (
	"peertrack/internal/ids"
	"peertrack/internal/transport"
)

// NodeRef identifies an overlay node: its position in the identifier
// space and its transport address.
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

// Result is a key-lookup outcome.
type Result struct {
	// Node is the node responsible for the key: its ring successor.
	Node NodeRef
	// Hops is the number of remote routing RPCs spent.
	Hops int
}

// Node is one DHT participant as the traceability layer sees it.
type Node interface {
	// Addr returns the node's transport address.
	Addr() transport.Addr
	// ID returns the node's identifier-space position.
	ID() ids.ID
	// Self returns the node's own reference.
	Self() NodeRef
	// Lookup resolves the node responsible for key.
	Lookup(key ids.ID) (Result, error)
	// LookupSet resolves up to want candidate holders of key in ring
	// order, the owner first: where replica failover reads look.
	LookupSet(key ids.ID, want int) ([]NodeRef, error)
	// Owns reports whether this node is currently responsible for key.
	Owns(key ids.ID) bool
	// NextHop returns the best next routing hop for key from local
	// state only (no RPCs), and whether that hop is already the
	// responsible node. Recursive routed queries build on it.
	NextHop(key ids.ID) (NodeRef, bool)
	// Neighbors returns the nodes that adopt this node's keys when it
	// fails — its ring successors, the replication targets.
	Neighbors() []NodeRef
}
