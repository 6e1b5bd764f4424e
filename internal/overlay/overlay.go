// Package overlay defines the DHT abstraction the traceability layer
// is written against. The paper presents its approach as "built on top
// of the DHT based overlay network" in general and adopts Chord for the
// evaluation; this interface is that genericity made concrete — the
// identical PeerTrack core runs over the Chord implementation
// (internal/chord) and the Kademlia implementation (internal/kademlia),
// and the overlay-comparison ablation measures what the choice costs.
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
	// Node is the node responsible for the key under the overlay's
	// ownership rule (ring successor for Chord, XOR-closest for
	// Kademlia).
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
	// Owns reports whether this node is currently responsible for key.
	Owns(key ids.ID) bool
	// NextHop returns the best next routing hop for key from local
	// state only (no RPCs), and whether that hop is already the
	// responsible node. Recursive routed queries build on it.
	NextHop(key ids.ID) (NodeRef, bool)
	// Neighbors returns the nodes that adopt this node's keys when it
	// fails — replication targets (ring successors for Chord, the
	// closest bucket contacts for Kademlia).
	Neighbors() []NodeRef
	// SetAppHandler installs the application-layer message handler.
	SetAppHandler(h transport.Handler)
}
