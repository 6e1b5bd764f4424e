// Package kademlia implements the Kademlia distributed hash table
// (Maymounkov & Mazières, IPTPS'02) as a second overlay for PeerTrack.
// The paper positions its approach as generic over "DHT based overlay
// networks"; running the identical traceability core over both Chord
// and Kademlia (see internal/overlay) substantiates that claim, and the
// overlay-comparison ablation quantifies the routing differences.
//
// Ownership rule: the node responsible for a key is the XOR-closest
// node. Lookup is the standard iterative FIND_NODE procedure over
// 160-bit SHA-1 identifiers with k-buckets.
package kademlia

import (
	"errors"
	"fmt"
	"sync"

	"peertrack/internal/ids"
	"peertrack/internal/overlay"
	"peertrack/internal/transport"
)

// Config tunes protocol parameters.
type Config struct {
	// MaxLookupSteps bounds iterative lookup. Default 3*Bits.
	MaxLookupSteps int
}

func (c *Config) fill() {
	if c.MaxLookupSteps <= 0 {
		c.MaxLookupSteps = 3 * ids.Bits
	}
}

// Node is one Kademlia participant.
type Node struct {
	self  overlay.NodeRef
	net   transport.Network
	cfg   Config
	table *table

	mu         sync.RWMutex
	appHandler transport.Handler
}

// Protocol messages.
type pingReq struct{ From overlay.NodeRef }
type pingResp struct{ Self overlay.NodeRef }

// findNodeReq asks for the k closest contacts to Target.
type findNodeReq struct {
	From   overlay.NodeRef
	Target ids.ID
}

type findNodeResp struct {
	Closest []overlay.NodeRef
}

func init() {
	transport.Register(pingReq{})
	transport.Register(pingResp{})
	transport.Register(findNodeReq{})
	transport.Register(findNodeResp{})
}

// New creates a node addressed at addr with identifier SHA1(addr) and
// registers its handler on net.
func New(net transport.Network, addr transport.Addr, cfg Config) (*Node, error) {
	return NewWithID(net, addr, ids.Hash([]byte(addr)), cfg)
}

// NewWithID is New with an explicit identifier (tests, deterministic
// networks).
func NewWithID(net transport.Network, addr transport.Addr, id ids.ID, cfg Config) (*Node, error) {
	cfg.fill()
	n := &Node{
		self: overlay.NodeRef{ID: id, Addr: addr},
		net:  net,
		cfg:  cfg,
	}
	n.table = newTable(n.self)
	if err := net.Register(addr, n.handleRPC); err != nil {
		return nil, fmt.Errorf("kademlia: register %s: %w", addr, err)
	}
	return n, nil
}

// Self returns this node's reference (overlay.Node).
func (n *Node) Self() overlay.NodeRef { return n.self }

// ID returns this node's identifier (overlay.Node).
func (n *Node) ID() ids.ID { return n.self.ID }

// Addr returns this node's transport address (overlay.Node).
func (n *Node) Addr() transport.Addr { return n.self.Addr }

// SetAppHandler installs the application-layer handler (overlay.Node).
func (n *Node) SetAppHandler(h transport.Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.appHandler = h
}

// handleRPC serves the protocol; every inbound message also refreshes
// the sender's table entry (Kademlia's passive maintenance).
func (n *Node) handleRPC(from transport.Addr, req any) (any, error) {
	switch r := req.(type) {
	case pingReq:
		n.table.insert(r.From)
		return pingResp{Self: n.self}, nil
	case findNodeReq:
		n.table.insert(r.From)
		return findNodeResp{Closest: n.table.closest(r.Target, K)}, nil
	default:
		n.mu.RLock()
		app := n.appHandler
		n.mu.RUnlock()
		if app != nil {
			return app(from, req)
		}
		return nil, fmt.Errorf("kademlia: unknown request %T", req)
	}
}

// call sends an RPC, short-circuiting self-addressed messages.
func (n *Node) call(to overlay.NodeRef, req any) (any, error) {
	if to.Addr == n.self.Addr {
		return n.handleRPC(n.self.Addr, req)
	}
	return n.net.Call(n.self.Addr, to.Addr, req)
}

// Ping checks liveness and refreshes tables on both ends.
func (n *Node) Ping(to overlay.NodeRef) bool {
	resp, err := n.call(to, pingReq{From: n.self})
	if err != nil {
		return false
	}
	n.table.insert(resp.(pingResp).Self)
	return true
}

// Join enters the network through bootstrap: lookup of the node's own
// id populates the nearby buckets, then a few spread-out bucket
// refreshes fill the rest.
func (n *Node) Join(bootstrap overlay.NodeRef) error {
	if bootstrap.Addr == n.self.Addr {
		return errors.New("kademlia: cannot join through self")
	}
	if !n.Ping(bootstrap) {
		return fmt.Errorf("kademlia: bootstrap %s unreachable", bootstrap.Addr)
	}
	n.table.insert(bootstrap)
	if _, err := n.Lookup(n.self.ID); err != nil {
		return fmt.Errorf("kademlia: self lookup: %w", err)
	}
	n.RefreshBuckets(4)
	return nil
}

// RefreshBuckets performs lookups for synthetic ids spread across the
// id space to populate distant buckets.
func (n *Node) RefreshBuckets(count int) {
	for i := 0; i < count; i++ {
		idx := (i * ids.Bits / count) % ids.Bits
		target := n.table.randomIDInBucket(idx, byte(i*37+1))
		n.Lookup(target) // best effort
	}
}

// Owns reports whether this node is responsible for key: no contact in
// its table is XOR-closer (overlay.Node).
func (n *Node) Owns(key ids.ID) bool {
	closest := n.table.closest(key, 1)
	if len(closest) == 0 {
		return true
	}
	return !xorLess(key, closest[0].ID, n.self.ID)
}

// NextHop returns the best local next hop for key (overlay.Node).
func (n *Node) NextHop(key ids.ID) (overlay.NodeRef, bool) {
	if n.Owns(key) {
		return n.self, true
	}
	closest := n.table.closest(key, 1)
	return closest[0], false
}

// Neighbors returns the K contacts closest to this node — the nodes
// that become responsible for its keys if it fails (overlay.Node).
func (n *Node) Neighbors() []overlay.NodeRef {
	return n.table.closest(n.self.ID, K)
}
