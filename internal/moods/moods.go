// Package moods implements MOODS, the paper's Model for mOving Objects
// in Discrete Space (Section II-B).
//
// Space is a finite, dynamic set of nodes N = {n1..nm} (the places where
// receptors are deployed); time is continuous; objects move between
// nodes and are observed only at them. The model defines two functions:
//
//	L(o, t):  O × T     → N   — where object o was/is at time t
//	TR(o, t1, t2): O × T × T → P — the path of o during [t1, t2]
//
// The package defines the domain types shared by every layer (object
// ids, observations, paths) and HistoryStore, a complete in-memory
// reference implementation of L and TR. HistoryStore doubles as the
// ground-truth oracle that tests compare the distributed P2P
// implementation against.
package moods

import (
	"sort"
	"sync"
	"time"

	"peertrack/internal/ids"
)

// ObjectID is an object's raw identifier — in EPC deployments the
// pure-identity URN, e.g. "urn:epc:id:sgtin:0614141.812345.6789". The
// identifier-space position of an object is SHA1(raw id).
type ObjectID string

// Hash maps the raw id into the 160-bit identifier space.
func (o ObjectID) Hash() ids.ID { return ids.HashString(string(o)) }

// NodeName names a node of the discrete space N — a warehouse, a
// distribution centre, a retail store.
type NodeName string

// Nowhere is the nil result of L: the object is not (yet) in the system.
const Nowhere = NodeName("")

// Observation is one element of the information flow: a receptor at
// Node captured Object at time At. Receptor identifies which reader saw
// it (e.g. "dock-door-3"); it does not affect the model but is carried
// for applications.
type Observation struct {
	Object   ObjectID
	Node     NodeName
	Receptor string
	At       time.Duration
}

// Visit is one stop on an object's trajectory.
type Visit struct {
	Node    NodeName
	Arrived time.Duration
}

// Path is the value domain P of TR: the sorted (by time) list of nodes
// an object visited. It may be empty.
type Path []Visit

// Nodes projects the path onto node names, in visit order.
func (p Path) Nodes() []NodeName {
	out := make([]NodeName, len(p))
	for i, v := range p {
		out[i] = v.Node
	}
	return out
}

// Equal reports whether two paths visit the same nodes at the same
// times.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Locator answers the L function.
type Locator interface {
	// Locate returns the node where object o was at time t, or Nowhere
	// if o had not been observed by t.
	Locate(o ObjectID, t time.Duration) (NodeName, error)
}

// Tracer answers the TR function.
type Tracer interface {
	// Trace returns the path of o during [t1, t2]: every node where o
	// was observed inside the window, in time order. If the object was
	// already inside the system at t1, the node it occupied at t1 opens
	// the path.
	Trace(o ObjectID, t1, t2 time.Duration) (Path, error)
}

// HistoryStore is the reference implementation of L and TR: it records
// every observation and answers queries exactly. It is the semantic
// specification the distributed implementation must match, and the
// centralized baseline builds on it.
type HistoryStore struct {
	mu   sync.RWMutex
	hist map[ObjectID][]Observation // per object, sorted by At
	n    int                        // total observations
}

// NewHistoryStore creates an empty store.
func NewHistoryStore() *HistoryStore {
	return &HistoryStore{hist: make(map[ObjectID][]Observation)}
}

// Record adds an observation. Observations may arrive out of order;
// the per-object history stays time-sorted.
func (h *HistoryStore) Record(obs Observation) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := h.hist[obs.Object]
	i := len(s)
	if i > 0 && s[i-1].At > obs.At {
		// Out of order; a time-sorted workload only ever appends.
		i = sort.Search(i, func(i int) bool { return s[i].At > obs.At })
	}
	s = append(s, Observation{})
	copy(s[i+1:], s[i:])
	s[i] = obs
	h.hist[obs.Object] = s
	h.n++
}

// Len returns the total number of recorded observations.
func (h *HistoryStore) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.n
}

// Objects returns the number of distinct objects seen.
func (h *HistoryStore) Objects() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.hist)
}

// ObjectIDs returns every distinct object seen, sorted, so callers that
// sweep the whole population (the invariant checker) iterate
// deterministically.
func (h *HistoryStore) ObjectIDs() []ObjectID {
	h.mu.RLock()
	out := make([]ObjectID, 0, len(h.hist))
	for o := range h.hist {
		out = append(out, o)
	}
	h.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Locate implements Locator: the node of the latest observation at or
// before t.
func (h *HistoryStore) Locate(o ObjectID, t time.Duration) (NodeName, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	s := h.hist[o]
	i := sort.Search(len(s), func(i int) bool { return s[i].At > t })
	if i == 0 {
		return Nowhere, nil
	}
	return s[i-1].Node, nil
}

// Trace implements Tracer.
func (h *HistoryStore) Trace(o ObjectID, t1, t2 time.Duration) (Path, error) {
	if t2 < t1 {
		t1, t2 = t2, t1
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	s := h.hist[o]
	var path Path
	// The node occupied at t1 (arrival strictly before t1) opens the
	// path.
	i := sort.Search(len(s), func(i int) bool { return s[i].At >= t1 })
	if i > 0 {
		path = append(path, Visit{Node: s[i-1].Node, Arrived: s[i-1].At})
	}
	for ; i < len(s) && s[i].At <= t2; i++ {
		path = append(path, Visit{Node: s[i].Node, Arrived: s[i].At})
	}
	return path, nil
}

// FullTrace returns the whole lifetime trajectory of o.
func (h *HistoryStore) FullTrace(o ObjectID) Path {
	h.mu.RLock()
	defer h.mu.RUnlock()
	s := h.hist[o]
	path := make(Path, len(s))
	for i, obs := range s {
		path[i] = Visit{Node: obs.Node, Arrived: obs.At}
	}
	return path
}

// History returns a copy of the raw observations for o, time-sorted.
func (h *HistoryStore) History(o ObjectID) []Observation {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return append([]Observation(nil), h.hist[o]...)
}
