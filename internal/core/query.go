package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"peertrack/internal/ids"
	"peertrack/internal/moods"
	"peertrack/internal/telemetry"
	"peertrack/internal/transport"
)

// ErrNotTracked is returned for objects with no index anywhere.
var ErrNotTracked = errors.New("core: object not tracked")

// LocateResult answers the MOODS L function through the P2P index.
type LocateResult struct {
	Node moods.NodeName // Nowhere if the object was not yet in the system at t
	Hops int            // network RPCs spent answering
}

// TraceResult answers the MOODS TR function through the P2P index.
type TraceResult struct {
	Path moods.Path
	Hops int
	// Intermediate reports that a routed query was answered by an
	// intermediate node on the routing path rather than the gateway
	// (always false for iterative queries).
	Intermediate bool
}

// maxWalk bounds IOP list traversal against corrupted links.
const maxWalk = 10000

// errBrokenChain is what walkChain returns when the list cannot be
// followed to its end: a link names a node that holds no matching visit,
// or the walk exceeded maxWalk steps.
var errBrokenChain = errors.New("core: broken IOP chain")

// findIndex resolves the current index entry of an object: first the
// gateway for the current-length prefix, then — the Section IV-A3
// lookup — a bidirectional linear search over the prefix chain: ascents
// to L_min and Data Triangle descents along the object's own bit path.
// Each gateway consultation is recorded on the caller's span (nil for
// untraced callers: a nil span's methods are no-ops).
func (p *Peer) findIndex(obj moods.ObjectID, sp *telemetry.Recording) (IndexEntry, int, error) {
	id := obj.Hash()
	hops := 0
	lp := p.pm.Lp()
	key := p.keyOf(id, lp)

	if key == individualKey {
		// One bucket, at the owner of the object's own id. Unlike
		// queryGateway, the lookup is a step and a failed query no hop.
		gwAddr, h, err := p.resolve(key, id)
		var resp any
		if err == nil {
			hops += h
			sp.Step(string(gwAddr), noteOverlayLookup).Int(h)
			resp, err = p.call(gwAddr, queryIndexReq{Key: key, Objects: []ids.ID{id}})
		}
		if err != nil {
			// Gateway unresolvable or unreachable: fall through to the
			// next live replica of its individual bucket in ring order.
			e, h, found, _ := p.replicaFallthrough(key, id, gwAddr)
			hops += h
			if found {
				sp.Step(string(p.chord.Addr()), noteReplicaObject).Str(string(obj))
				return e, hops, nil
			}
			return IndexEntry{}, hops, err
		}
		if gwAddr != p.chord.Addr() {
			hops++
		}
		qr := resp.(queryIndexResp)
		if len(qr.Entries) == 0 {
			return IndexEntry{}, hops, ErrNotTracked
		}
		return qr.Entries[0], hops, nil
	}

	entry, h, found, delegated := p.queryGateway(key, id, sp)
	hops += h
	if found {
		return entry, hops, nil
	}

	// Bidirectional linear search (Section IV-A3): down the triangle
	// first, then up towards the shortest historical level.
	entry, h, found = p.descend(key, id, delegated, sp)
	hops += h
	if found {
		return entry, hops, nil
	}

	// Records can only sit above the current level if Lp has been
	// shorter (grouping inconsistencies after Lp changes).
	lo, _ := p.pm.LpRange()
	for cur := key; cur.Len() > lo; {
		cur = cur.Parent()
		entry, h, found, delegated = p.queryGateway(cur, id, sp)
		hops += h
		if found {
			return entry, hops, nil
		}
		// A parent that has delegated may have pushed the record down a
		// sibling path; follow the object's bits one step.
		if delegated {
			c := cur.Child(cur.NextBit(id))
			if c.Len() != lp { // skip re-querying the original prefix
				entry, h, found, _ = p.queryGateway(c, id, sp)
				hops += h
				if found {
					return entry, hops, nil
				}
			}
		}
	}
	return IndexEntry{}, hops, ErrNotTracked
}

// descend looks for an object's record below key, whose own bucket
// missed: down the Data Triangle along the object's own bits — the next
// bit selects which child can hold it — while buckets report delegation
// (delegated is key's flag) or Lp has been longer, so deeper records can
// exist, for at most MaxDescent levels.
func (p *Peer) descend(key ids.PrefixKey, id ids.ID, delegated bool, sp *telemetry.Recording) (IndexEntry, int, bool) {
	hops := 0
	_, hi := p.pm.LpRange()
	for depth := 0; (delegated || hi > key.Len()) && depth < MaxDescent && key.Len() < ids.MaxKeyLen; depth++ {
		key = key.Child(key.NextBit(id))
		entry, h, found, del := p.queryGateway(key, id, sp)
		hops += h
		if found {
			return entry, hops, true
		}
		delegated = del
	}
	return IndexEntry{}, hops, false
}

// queryGateway asks the gateway of one prefix for one object's record.
func (p *Peer) queryGateway(key ids.PrefixKey, id ids.ID, sp *telemetry.Recording) (IndexEntry, int, bool, bool) {
	hops := 0
	req := queryIndexReq{Key: key, Objects: []ids.ID{id}}
	gwAddr, err := p.resolveGateway(key)
	var resp any
	if err == nil {
		resp, err = p.call(gwAddr, req)
		if gwAddr != p.chord.Addr() {
			hops++
		}
		if err != nil {
			sp.Step(string(gwAddr), noteUnreachable).Prefix(key).Str(err.Error())
			// The resolution may be stale (a gateway that left the ring),
			// as on the flush path: ask the ring once more.
			p.gwCache.remove(key)
			if fresh, rerr := p.resolveGateway(key); rerr == nil && fresh != gwAddr {
				gwAddr = fresh
				resp, err = p.call(gwAddr, req)
				if gwAddr != p.chord.Addr() {
					hops++
				}
				if err != nil {
					sp.Step(string(gwAddr), noteUnreachable).Prefix(key).Str(err.Error())
				}
			}
		}
	}
	if err != nil {
		// Deterministic failover: serve from the next live replica of
		// the bucket in ring order, so the crash window never returns
		// an empty answer while a replica holds the record. Even the
		// gateway resolution can die with the primary (the lookup
		// terminates at the crashed owner, and gwAddr stays empty); the
		// replica set is still reachable through lookup provenance.
		e, h, found, delegated := p.replicaFallthrough(key, id, gwAddr)
		hops += h
		if found {
			sp.Step(string(p.chord.Addr()), noteReplicaBucket).Prefix(key)
		}
		return e, hops, found, delegated
	}
	qr := resp.(queryIndexResp)
	if len(qr.Entries) == 0 {
		sp.Step(string(gwAddr), noteMiss).Prefix(key).Bool(qr.Delegated)
		return IndexEntry{}, hops, false, qr.Delegated
	}
	sp.Step(string(gwAddr), noteHit).Prefix(key).Str(string(qr.Entries[0].Latest))
	return qr.Entries[0], hops, true, qr.Delegated
}

// fetchVisits retrieves an object's visit records from a node (free
// when local).
func (p *Peer) fetchVisits(node moods.NodeName, obj moods.ObjectID) ([]VisitRecord, int, error) {
	if transport.Addr(node) == p.chord.Addr() {
		vs, _ := p.repo.get(obj)
		return vs, 0, nil
	}
	resp, err := p.call(transport.Addr(node), iopGetReq{Object: obj})
	if err != nil {
		return nil, 1, err
	}
	r := resp.(iopGetResp)
	return r.Visits, 1, nil
}

// pickVisit returns the latest visit strictly before bound (or the
// latest overall if bound < 0).
func pickVisit(visits []VisitRecord, bound time.Duration) (VisitRecord, bool) {
	for i := len(visits) - 1; i >= 0; i-- {
		if bound < 0 || visits[i].Arrived < bound {
			return visits[i], true
		}
	}
	return VisitRecord{}, false
}

// Locate answers L(o, t): the node where the object was at time t.
func (p *Peer) Locate(obj moods.ObjectID, t time.Duration) (LocateResult, error) {
	sp := p.tel.tracer.Start(telemetry.OpLocate, string(obj))
	res, err := p.locate(obj, t, sp)
	sp.Finish(res.Hops, err)
	if err == nil {
		p.tel.locates.Inc()
		p.tel.locateHops.Observe(int64(res.Hops))
	}
	return res, err
}

func (p *Peer) locate(obj moods.ObjectID, t time.Duration, sp *telemetry.Recording) (LocateResult, error) {
	entry, hops, err := p.findIndex(obj, sp)
	if err != nil {
		return LocateResult{Hops: hops}, err
	}
	if t >= entry.Arrived {
		return LocateResult{Node: entry.Latest, Hops: hops}, nil
	}
	// Walk the IOP list backwards until a visit at or before t; an
	// object that entered the network after t was nowhere.
	at := moods.Nowhere
	h, err := p.walkChain(obj, entry.Latest, -1, p.fetchVisitsRead, sp, func(node moods.NodeName, v VisitRecord) bool {
		if v.Arrived <= t {
			at = node
		}
		return v.Arrived > t
	})
	return LocateResult{Node: at, Hops: hops + h}, err
}

// walkChain follows an object's IOP list backwards: from the newest
// visit at node start that arrived before bound (the newest of all when
// bound < 0), along From links, handing each visit to visit until it
// returns false or the object's first visit is passed. fetch reads a
// node's visit records: fetchVisitsRead for queries, the plain
// fetchVisits for stitches. Each visit is a step on sp (nil for
// untraced walks). It returns the RPCs spent; a failed fetch comes back
// as its own error, a list that cannot be followed as errBrokenChain.
func (p *Peer) walkChain(obj moods.ObjectID, start moods.NodeName, bound time.Duration,
	fetch func(moods.NodeName, moods.ObjectID) ([]VisitRecord, int, error),
	sp *telemetry.Recording, visit func(moods.NodeName, VisitRecord) bool) (int, error) {
	hops := 0
	node := start
	for steps := 0; steps < maxWalk; steps++ {
		visits, h, err := fetch(node, obj)
		hops += h
		if err != nil {
			return hops, err
		}
		v, ok := pickVisit(visits, bound)
		if !ok {
			return hops, fmt.Errorf("%w for %s at %s", errBrokenChain, obj, node)
		}
		sp.Step(string(node), noteWalk).Dur(v.Arrived)
		if !visit(node, v) || v.From == "" {
			return hops, nil
		}
		node, bound = v.From, v.Arrived
	}
	return hops, fmt.Errorf("%w for %s: walk exceeded %d steps", errBrokenChain, obj, maxWalk)
}

// Trace answers TR(o, t1, t2): the object's path during the window,
// opened by the node it occupied at t1 (moods semantics).
func (p *Peer) Trace(obj moods.ObjectID, t1, t2 time.Duration) (TraceResult, error) {
	sp := p.tel.tracer.Start(telemetry.OpTrace, string(obj))
	res, err := p.trace(obj, t1, t2, sp)
	sp.Finish(res.Hops, err)
	if err == nil {
		p.tel.traces.Inc()
		p.tel.traceHops.Observe(int64(res.Hops))
	}
	return res, err
}

func (p *Peer) trace(obj moods.ObjectID, t1, t2 time.Duration, sp *telemetry.Recording) (TraceResult, error) {
	if t2 < t1 {
		t1, t2 = t2, t1
	}
	entry, hops, err := p.findIndex(obj, sp)
	if err != nil {
		return TraceResult{Hops: hops}, err
	}
	path, h, err := p.walkBack(entry.Latest, obj, t1, t2, sp)
	return TraceResult{Path: path, Hops: hops + h}, err
}

// FullTrace answers the paper's evaluation query "Where has object oi
// been?" — the lifetime trajectory.
func (p *Peer) FullTrace(obj moods.ObjectID) (TraceResult, error) {
	return p.Trace(obj, 0, 1<<62)
}

// walkPathCap is the stops a walked path holds in its first allocation:
// the paper's ten-stop trace, a routed trace's forward pass included.
const walkPathCap = 16

// walkBack traverses the IOP list backwards from the newest visit at
// node start, collecting visits within [t1, t2] plus the visit occupied
// at t1, which closes the walk, and returns the path in forward (time)
// order. An empty path is nil.
func (p *Peer) walkBack(start moods.NodeName, obj moods.ObjectID, t1, t2 time.Duration, sp *telemetry.Recording) (moods.Path, int, error) {
	var path moods.Path
	hops, err := p.walkChain(obj, start, -1, p.fetchVisitsRead, sp, func(node moods.NodeName, v VisitRecord) bool {
		if v.Arrived <= t2 {
			if path == nil {
				path = make(moods.Path, 0, walkPathCap)
			}
			path = append(path, moods.Visit{Node: node, Arrived: v.Arrived})
		}
		return v.Arrived >= t1
	})
	if err != nil {
		return nil, hops, err
	}
	slices.Reverse(path)
	return path, hops, nil
}
