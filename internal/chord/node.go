// Package chord implements the Chord distributed hash table protocol
// (Stoica et al., SIGCOMM'01), the overlay the paper builds PeerTrack
// on: "we adopt Chord as the overlay for its adaptiveness as nodes join
// and leave".
//
// The implementation is complete: 160-bit SHA-1 identifier ring, finger
// tables, successor lists, periodic stabilization with notify, finger
// repair, failure detection, voluntary leave, and iterative O(log N)
// lookup. It is transport-agnostic — the same node runs over the
// instrumented in-memory network used for experiments and over TCP.
package chord

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"peertrack/internal/ids"
	"peertrack/internal/transport"
)

// Config tunes protocol parameters.
type Config struct {
	// SuccessorListLen is the number of successors tracked for fault
	// tolerance (Chord's r). Default 8.
	SuccessorListLen int
}

func (c *Config) fill() {
	if c.SuccessorListLen <= 0 {
		c.SuccessorListLen = 8
	}
}

// maxLookupSteps bounds an iterative lookup, a defence against routing
// loops on an inconsistent ring. A lookup on a consistent ring halves
// its distance to the key each hop, so it needs at most ids.Bits of
// them; twice that leaves room for the detours churn forces.
const maxLookupSteps = 2 * ids.Bits

// Node is one Chord participant.
type Node struct {
	self NodeRef
	net  transport.Network
	cfg  Config

	mu         sync.RWMutex // write-locked only through lock
	pred       NodeRef
	successors []NodeRef // successors[0] is the immediate successor
	fingers    fingerTable
	nextFinger int
	ringHook   func() // see OnRingChange

	// answers boxes one closestPrecedingResp per answer slot (see answer):
	// nil until the first remote question and again after every write
	// hold, so a box is exactly as current as the state it was made from.
	answers atomic.Pointer[[]atomic.Value]

	// Read by every RPC without mu: left is written under mu, appHandler
	// once at wiring.
	left       atomic.Bool
	appHandler atomic.Pointer[transport.Handler]

	ringChanges  atomic.Uint64 // see RingChanges
	failedOverAt atomic.Uint64 // ringChanges+1 at the last fail-over; see Repairing

	// tel is set once at wiring time (before traffic) and read without
	// the lock on lookup/stabilize paths.
	tel nodeTelemetry
}

// ErrLeft is returned by operations on a node that has departed the
// ring.
var ErrLeft = errors.New("chord: node has left the ring")

// New creates a node addressed at addr whose ring position is
// SHA1(addr), and registers its RPC handler on net. The node starts as a
// single-node ring; call Join to enter an existing ring.
func New(net transport.Network, addr transport.Addr, cfg Config) (*Node, error) {
	return NewWithID(net, addr, ids.Hash([]byte(addr)), cfg)
}

// NewWithID is New with an explicit ring identifier, used by tests and
// by deterministic experiment rings.
func NewWithID(net transport.Network, addr transport.Addr, id ids.ID, cfg Config) (*Node, error) {
	cfg.fill()
	n := &Node{
		self: NodeRef{ID: id, Addr: addr},
		net:  net,
		cfg:  cfg,
	}
	n.successors = []NodeRef{n.self} // single-node ring points at itself
	if err := net.Register(addr, n.handleRPC); err != nil {
		return nil, fmt.Errorf("chord: register %s: %w", addr, err)
	}
	return n, nil
}

// NewPrebound creates a node whose transport handler has already been
// installed by the caller — used when the address is only known after
// binding (ephemeral TCP ports). The caller's handler must forward
// requests to (*Node).HandleRPC.
func NewPrebound(net transport.Network, addr transport.Addr, id ids.ID, cfg Config) *Node {
	return newUnregistered(net, addr, id, cfg)
}

func newUnregistered(net transport.Network, addr transport.Addr, id ids.ID, cfg Config) *Node {
	cfg.fill()
	n := &Node{
		self: NodeRef{ID: id, Addr: addr},
		net:  net,
		cfg:  cfg,
	}
	n.successors = []NodeRef{n.self}
	return n
}

// HandleRPC processes one inbound protocol message; exported for
// callers that own the transport registration (see NewPrebound).
func (n *Node) HandleRPC(from transport.Addr, req any) (any, error) {
	return n.handleRPC(from, req)
}

// lock takes mu for writing and drops the boxed answers: whatever the
// hold changes, no question is answered from the state before it.
func (n *Node) lock() {
	n.mu.Lock()
	n.answers.Store(nil)
}

// OnRingChange installs fn, called each time a live node is spliced in
// as immediate successor or predecessor, the two pointers that close the
// ring: by a join, a stabilize round adopting the successor's
// predecessor, a notify, a neighbour's leave, a gossip sample. Dropping
// a dead neighbour (a round failing over, CheckPredecessor clearing) is
// repair and fires nothing, nor does WireStaticRing. fn runs with the
// node lock released, possibly on an RPC handler goroutine, and must not
// block; core.Peer.Install uses it to pull stabilize rounds in.
func (n *Node) OnRingChange(fn func()) {
	n.lock()
	defer n.mu.Unlock()
	n.ringHook = fn
}

// RingChanges counts the events OnRingChange describes.
func (n *Node) RingChanges() uint64 { return n.ringChanges.Load() }

// Repairing reports whether a stabilize round has met a dead successor
// (failed over past the head, or found nobody alive) since the last
// ring change.
func (n *Node) Repairing() bool { return n.failedOverAt.Load() == n.ringChanges.Load()+1 }

// ringChanged counts a ring change and fires the hook. Callers have
// released n.mu.
func (n *Node) ringChanged() {
	n.ringChanges.Add(1)
	n.mu.RLock()
	hook := n.ringHook
	n.mu.RUnlock()
	if hook != nil {
		hook()
	}
}

// Self returns this node's reference.
func (n *Node) Self() NodeRef { return n.self }

// ID returns this node's ring identifier.
func (n *Node) ID() ids.ID { return n.self.ID }

// Addr returns this node's transport address.
func (n *Node) Addr() transport.Addr { return n.self.Addr }

// Successor returns the current immediate successor.
func (n *Node) Successor() NodeRef {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.successors[0]
}

// Successors returns a copy of the successor list: the nodes that adopt
// this node's keys if it fails, the replication targets.
func (n *Node) Successors() []NodeRef {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]NodeRef, len(n.successors))
	copy(out, n.successors)
	return out
}

// SuccessorListLen returns the configured successor-list length r (the
// invariant checker compares actual lists against min(r, N-1)).
func (n *Node) SuccessorListLen() int { return n.cfg.SuccessorListLen }

// Predecessor returns the current predecessor (zero if unknown).
func (n *Node) Predecessor() NodeRef {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.pred
}

// Owns reports whether this node is currently responsible for key, i.e.
// key ∈ (predecessor, self]. With an unknown predecessor a node claims
// only its own identifier.
func (n *Node) Owns(key ids.ID) bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.owns(key)
}

// owns is Owns with n.mu held.
func (n *Node) owns(key ids.ID) bool {
	if n.pred.IsZero() {
		return key == n.self.ID || n.successors[0].Equal(n.self) // single-node ring owns all
	}
	return ids.BetweenRightIncl(&key, &n.pred.ID, &n.self.ID)
}

// handleRPC dispatches inbound protocol messages.
func (n *Node) handleRPC(from transport.Addr, req any) (any, error) {
	if n.left.Load() {
		return nil, ErrLeft
	}
	switch r := req.(type) {
	case pingReq:
		return pingResp{Self: n.self}, nil
	case getStateReq:
		n.mu.RLock()
		resp := getStateResp{
			Self:       n.self,
			Successors: append([]NodeRef(nil), n.successors...),
			Pred:       n.pred,
		}
		n.mu.RUnlock()
		return resp, nil
	case closestPrecedingReq:
		return n.answer(r.Key), nil
	case notifyReq:
		n.notify(r.Candidate)
		return notifyResp{}, nil
	case leaveReq:
		n.handleLeave(r)
		return leaveResp{}, nil
	default:
		if app := n.appHandler.Load(); app != nil {
			return (*app)(from, req)
		}
		return nil, fmt.Errorf("chord: unknown request %T", req)
	}
}

// SetAppHandler installs the handler for application-level messages
// arriving at this node's address (anything the Chord protocol itself
// does not consume). Layers such as the DHT store and the traceability
// core chain through it.
func (n *Node) SetAppHandler(h transport.Handler) {
	n.appHandler.Store(&h)
}

// Answer slots of closestPreceding, in the order it tries them: the
// finger runs and successor entries follow slotFinger, one slot each.
const (
	slotSelfDone = iota // this node owns the key
	slotSuccDone        // the immediate successor owns it
	slotFinger          // finger run j is slotFinger+j
)

// answer is closestPreceding boxed for the wire: each slot is boxed by
// the first question that meets it and shared by the rest until the
// next write hold. All of it runs under one read hold, which is what
// makes a box as current as the state (lock drops them all).
func (n *Node) answer(key ids.ID) any {
	n.mu.RLock()
	defer n.mu.RUnlock()
	resp, slot := n.closestPreceding(key)
	boxes := n.answers.Load()
	if boxes == nil {
		fresh := make([]atomic.Value, slotFinger+len(n.fingers.ref)+len(n.successors)+1)
		n.answers.CompareAndSwap(nil, &fresh)
		boxes = n.answers.Load() // ours, or another reader's made from this same state
	}
	box := &(*boxes)[slot]
	v := box.Load()
	if v == nil {
		v = any(resp)
		box.Store(v)
	}
	return v
}

// closestPreceding implements closest_preceding_node(key) plus the
// termination test: if key falls between this node and its successor,
// the successor is the answer and the lookup is done. It also returns
// the answer's slot (see answer). The caller holds n.mu.
func (n *Node) closestPreceding(key ids.ID) (closestPrecedingResp, int) {
	// A key this node owns terminates at this node. Routing normally
	// stops one hop earlier (the predecessor answers Done), but a detour
	// around a dead predecessor can land the lookup directly on the
	// owner — which must then claim the key instead of handing back a
	// finger that precedes it (circling the ring past the key forever).
	if !n.pred.IsZero() && ids.BetweenRightIncl(&key, &n.pred.ID, &n.self.ID) {
		return closestPrecedingResp{Node: n.self, Done: true}, slotSelfDone
	}
	succ := &n.successors[0]
	if ids.BetweenRightIncl(&key, &n.self.ID, &succ.ID) {
		return closestPrecedingResp{Node: *succ, Done: true}, slotSuccDone
	}
	// Scan fingers from the top for the closest node in (self, key): the
	// value of each run, as fingerTable.descend visits them. Entries are
	// read in place; only the answer is copied.
	runs := n.fingers.ref
	for j := len(runs) - 1; j >= 0; j-- {
		if f := &runs[j]; !f.IsZero() && ids.Between(&f.ID, &n.self.ID, &key) {
			return closestPrecedingResp{Node: *f}, slotFinger + j
		}
	}
	// Successor list as a fallback routing table.
	for i := len(n.successors) - 1; i >= 0; i-- {
		if s := &n.successors[i]; ids.Between(&s.ID, &n.self.ID, &key) {
			return closestPrecedingResp{Node: *s}, slotFinger + len(runs) + i
		}
	}
	return closestPrecedingResp{Node: *succ}, slotFinger + len(runs) + len(n.successors)
}

// notify processes a predecessor candidacy (Chord's notify()).
func (n *Node) notify(cand NodeRef) {
	if cand.Equal(n.self) {
		return
	}
	n.lock()
	old := n.pred
	accept := old.IsZero() || ids.Between(&cand.ID, &old.ID, &n.self.ID)
	if accept {
		n.pred = cand
	}
	n.mu.Unlock()
	if accept && !old.Equal(cand) {
		n.ringChanged()
	}
}

// handleLeave relinks around a voluntarily departing neighbour.
func (n *Node) handleLeave(r leaveReq) {
	n.lock()
	predChanged := !r.Pred.IsZero() && !n.pred.IsZero() && n.pred.Equal(r.Leaver)
	if predChanged {
		// Our predecessor left; adopt its predecessor.
		n.pred = r.Pred
		if r.Pred.Equal(n.self) {
			n.pred = NodeRef{}
		}
	}
	succChanged := len(r.Successors) > 0 && n.successors[0].Equal(r.Leaver)
	if succChanged {
		// Our successor left; adopt its successor list.
		succs := make([]NodeRef, 0, n.cfg.SuccessorListLen)
		for _, s := range r.Successors {
			if !s.Equal(r.Leaver) && !s.Equal(n.self) {
				succs = append(succs, s)
			}
		}
		if len(succs) == 0 {
			succs = []NodeRef{n.self}
		}
		n.successors = succs
		// Purge the leaver from fingers.
		n.fingers.purge(r.Leaver)
	}
	n.mu.Unlock()
	if predChanged || succChanged {
		n.ringChanged()
	}
}

// call is a typed RPC helper.
func (n *Node) call(to NodeRef, req any) (any, error) {
	if to.Addr == n.self.Addr {
		// Local shortcut: never pay transport cost to talk to yourself.
		return n.handleRPC(n.self.Addr, req)
	}
	return n.net.Call(n.self.Addr, to.Addr, req)
}

// Ping checks whether a node is alive.
func (n *Node) Ping(to NodeRef) bool {
	_, err := n.call(to, pingReq{})
	return err == nil
}
