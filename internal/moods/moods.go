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
	"math/bits"
	"slices"
	"sort"
	"sync"
	"time"

	"peertrack/internal/ids"
	"peertrack/internal/probe"
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
// Node captured Object at time At.
type Observation struct {
	Object ObjectID
	Node   NodeName
	At     time.Duration
}

func byAt(a, b Observation) int { return cmp.Compare(a.At, b.At) }

// SortByTime orders obss by capture time, observations captured at the
// same instant keeping their relative order — a stable sort by At. It is
// an LSD radix sort of one uint64 key per observation, the capture time
// less the earliest packed above the observation's position: 11-bit
// passes, each stable, over only the bits of the time that vary, so ties
// keep position order. The observations then move once each, in place,
// along the cycles of the permutation the keys spell out. Scratch is the
// keys and their pass buffer, 16 bytes an observation; sorted input
// returns without allocating.
func SortByTime(obss []Observation) {
	if slices.IsSortedFunc(obss, byAt) {
		return
	}
	lo := obss[0].At
	for i := range obss {
		lo = min(lo, obss[i].At)
	}
	var vary uint64 // the bits of At − lo that some observation sets
	for i := range obss {
		vary |= uint64(obss[i].At - lo)
	}
	n := len(obss)
	posBits := uint(bits.Len(uint(n - 1)))
	posMask := uint64(1)<<posBits - 1
	buf := make([]uint64, 2*n)
	keys, spare := buf[:n], buf[n:]
	for i := range keys {
		keys[i] = uint64(i)
	}
	// The varying bits go lowest first, as many a round as fit above the
	// position: one round unless the span is wider than 64 − posBits bits.
	// A round fills the keys from the positions the last one left.
	room := 64 - posBits
	for from, to := uint(bits.TrailingZeros64(vary)), uint(bits.Len64(vary)); from < to; from += room {
		width := min(room, to-from)
		passes := int(width+radixBits-1) / radixBits
		var counts [(64 + radixBits - 1) / radixBits][1 << radixBits]int
		for i, k := range keys {
			p := k & posMask
			k = uint64(obss[p].At-lo)>>from&(1<<width-1)<<posBits | p
			keys[i] = k
			for d := range counts[:passes] {
				counts[d][k>>(posBits+uint(d)*radixBits)&digit]++
			}
		}
		for d := range counts[:passes] {
			shift, at := posBits+uint(d)*radixBits, &counts[d]
			if at[keys[0]>>shift&digit] == n {
				continue // every key has this digit
			}
			sum := 0
			for b, c := range at {
				at[b], sum = sum, sum+c
			}
			for _, k := range keys {
				b := k >> shift & digit
				spare[at[b]] = k
				at[b]++
			}
			keys, spare = spare, keys
		}
	}
	for i := range keys {
		if int(keys[i]&posMask) == i {
			continue
		}
		first, j := obss[i], i
		for src := int(keys[j] & posMask); src != i; src = int(keys[j] & posMask) {
			obss[j] = obss[src]
			keys[j] = uint64(j) // placed
			j = src
		}
		obss[j] = first
		keys[j] = uint64(j)
	}
}

// A pass of SortByTime orders the keys by one radixBits-wide digit.
const (
	radixBits = 11
	digit     = 1<<radixBits - 1
)

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

// HistoryStore is the reference implementation of L and TR: it records
// every observation and answers queries exactly. It is the semantic
// specification the distributed implementation must match, and the
// centralized baseline builds on it. Of an observation it keeps the
// (node, time) pair: the object is the key of its history, and the
// histories sit in an arena in order of first sight, indexed by object.
type HistoryStore struct {
	mu    sync.RWMutex
	index probe.Table
	hist  []history
	n     int // total observations
}

// history is one object's, sorted by Arrived.
type history struct {
	obj  ObjectID
	path Path
}

// NewHistoryStore creates an empty store.
func NewHistoryStore() *HistoryStore { return &HistoryStore{} }

// path returns o's history, nil if o was never seen; h.mu must be held.
func (h *HistoryStore) path(o ObjectID) Path {
	if i, ok := h.index.Find(probe.String(string(o)), func(i int32) bool { return h.hist[i].obj == o }); ok {
		return h.hist[i].path
	}
	return nil
}

// Record adds an observation. Observations may arrive out of order;
// the per-object history stays time-sorted.
func (h *HistoryStore) Record(obs Observation) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.record(obs)
}

func (h *HistoryStore) record(obs Observation) {
	hash := probe.String(string(obs.Object))
	k, ok := h.index.Find(hash, func(k int32) bool { return h.hist[k].obj == obs.Object })
	if !ok {
		k = int32(len(h.hist))
		h.index.Insert(hash, k)
		h.hist = append(h.hist, history{obj: obs.Object})
	}
	s := h.hist[k].path
	i := len(s)
	if i > 0 && s[i-1].Arrived > obs.At {
		// Out of order; a time-sorted workload only ever appends.
		i = sort.Search(i, func(i int) bool { return s[i].Arrived > obs.At })
	}
	h.hist[k].path = slices.Insert(s, i, Visit{Node: obs.Node, Arrived: obs.At})
	h.n++
}

// RecordAll records a workload at once and leaves what one Record per
// observation, in slice order, leaves. Into an empty store, from input
// in SortByTime's order, it counts each object's observations and lays
// all histories out in one slab. Each history is cut with cap == len, so
// a later Record reallocates it instead of growing into its neighbour's.
func (h *HistoryStore) RecordAll(sorted []Observation) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n != 0 || len(sorted) > math.MaxInt32 || !slices.IsSortedFunc(sorted, byAt) {
		for _, o := range sorted {
			h.record(o)
		}
		return
	}
	// slot[i] is the place of sorted[i]'s object. Until the arena is made,
	// once and to size, place k's object is sorted[first[k]].
	slot, first := make([]int32, len(sorted)), make([]int32, 0, len(sorted))
	// Hashing reads an id's bytes, in time order a cache miss apiece:
	// hashed a window ahead, away from the probes, the misses overlap.
	var hashes [64]uint64
	for i := range sorted {
		if i%len(hashes) == 0 {
			for j := range hashes[:min(len(hashes), len(sorted)-i)] {
				hashes[j] = probe.String(string(sorted[i+j].Object))
			}
		}
		o, hash := sorted[i].Object, hashes[i%len(hashes)]
		k, ok := h.index.Find(hash, func(k int32) bool { return sorted[first[k]].Object == o })
		if !ok {
			k = int32(len(first))
			h.index.Insert(hash, k)
			first = append(first, int32(i))
		}
		slot[i] = k
	}
	end := make([]int32, len(first)) // object k's next free place: the end of its history once filled
	for _, k := range slot {
		end[k]++
	}
	sum := int32(0)
	for k, n := range end {
		end[k] = sum
		sum += n
	}
	slab := make(Path, len(sorted))
	for i, k := range slot {
		slab[end[k]] = Visit{Node: sorted[i].Node, Arrived: sorted[i].At}
		end[k]++
	}
	h.hist = make([]history, len(first))
	start := int32(0)
	for k, i := range first {
		h.hist[k] = history{obj: sorted[i].Object, path: slab[start:end[k]:end[k]]}
		start = end[k]
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
	for _, e := range h.hist {
		out = append(out, e.obj)
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
	s := h.path(o)
	i := sort.Search(len(s), func(i int) bool { return s[i].Arrived > t })
	if i == 0 {
		return Nowhere, nil
	}
	return s[i-1].Node, nil
}

// Trace answers the TR function: the path of o during [t1, t2], every
// node where o was observed inside the window, in time order. If the
// object was already inside the system at t1, the node it occupied at
// t1 opens the path. It is the answer the distributed traces are
// compared against.
func (h *HistoryStore) Trace(o ObjectID, t1, t2 time.Duration) (Path, error) {
	if t2 < t1 {
		t1, t2 = t2, t1
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	s := h.path(o)
	var path Path
	// The node occupied at t1 (arrival strictly before t1) opens the
	// path.
	i := sort.Search(len(s), func(i int) bool { return s[i].Arrived >= t1 })
	if i > 0 {
		path = append(path, s[i-1])
	}
	for ; i < len(s) && s[i].Arrived <= t2; i++ {
		path = append(path, s[i])
	}
	return path, nil
}

// FullTrace returns the whole lifetime trajectory of o.
func (h *HistoryStore) FullTrace(o ObjectID) Path {
	h.mu.RLock()
	defer h.mu.RUnlock()
	s := h.path(o)
	return append(make(Path, 0, len(s)), s...)
}
