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
	"cmp"
	"math"
	"slices"
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

func byAt(a, b Observation) int { return cmp.Compare(a.At, b.At) }

// SortByTime orders obss by capture time, observations captured at the
// same instant keeping their relative order — a stable sort by At. It
// sorts 16-byte (At, position) keys, a total order that any sort keeps
// stable, then moves each 56-byte observation once, in place, along the
// cycles of the permutation. Sorted input returns without allocating.
func SortByTime(obss []Observation) {
	if slices.IsSortedFunc(obss, byAt) {
		return
	}
	type key struct {
		at  time.Duration
		pos int // where the observation that belongs here stands
	}
	keys := make([]key, len(obss))
	for i := range obss {
		keys[i] = key{obss[i].At, i}
	}
	slices.SortFunc(keys, func(a, b key) int { // no two keys are equal
		if a.at < b.at || a.at == b.at && a.pos < b.pos {
			return -1
		}
		return 1
	})
	for i := range keys {
		if keys[i].pos == i {
			continue
		}
		first, j := obss[i], i
		for src := keys[j].pos; src != i; src = keys[j].pos {
			obss[j] = obss[src]
			keys[j].pos = j // placed
			j = src
		}
		obss[j] = first
		keys[j].pos = j
	}
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
func (p Path) Equal(q Path) bool { return slices.Equal(p, q) }

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
	h.record(obs)
}

func (h *HistoryStore) record(obs Observation) {
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

// RecordAll records a workload at once and leaves what one Record per
// observation, in slice order, leaves. Into an empty store, from input
// in SortByTime's order, it counts each object's observations, lays all
// histories out in one slab and inserts one map entry an object. Each
// history is cut with cap == len, so a later Record reallocates it
// instead of growing into its neighbour's.
func (h *HistoryStore) RecordAll(sorted []Observation) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n != 0 || len(sorted) > math.MaxInt32 || !slices.IsSortedFunc(sorted, byAt) {
		for _, o := range sorted {
			h.record(o)
		}
		return
	}
	// slot[i] numbers sorted[i]'s object, end[k] counts object k's
	// observations. The map is sized for two observations an object.
	number := make(map[ObjectID]int32, len(sorted)/2)
	slot := make([]int32, len(sorted))
	var end []int32
	for i := range sorted {
		k, ok := number[sorted[i].Object]
		if !ok {
			k = int32(len(end))
			number[sorted[i].Object] = k
			end = append(end, 0)
		}
		slot[i] = k
		end[k]++
	}
	sum := int32(0)
	for k, n := range end {
		end[k] = sum // object k's next free place: the end of its history once filled
		sum += n
	}
	slab := make([]Observation, len(sorted))
	for i, k := range slot {
		slab[end[k]] = sorted[i]
		end[k]++
	}
	h.hist = make(map[ObjectID][]Observation, len(end))
	start := int32(0)
	for _, e := range end {
		h.hist[slab[start].Object] = slab[start:e:e]
		start = e
	}
	h.n = len(sorted)
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

// Locate answers L: the node of the latest observation at or before t,
// or Nowhere if o had not been observed by then.
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
