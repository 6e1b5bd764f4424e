package core

import (
	"errors"
	"fmt"
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

// findIndex resolves the current index entry of an object: first the
// gateway for the current-length prefix, then — the Section IV-A3
// lookup — a bidirectional linear search over the prefix chain: ascents
// to L_min and Data Triangle descents along the object's own bit path.
// Each gateway consultation is recorded on the caller's span (nil for
// untraced callers: a nil span's methods are no-ops).
func (p *Peer) findIndex(obj moods.ObjectID, sp *telemetry.Recording) (IndexEntry, int, error) {
	id := obj.Hash()
	hops := 0

	if p.cfg.Mode == IndividualIndexing {
		res, err := p.node.Lookup(id)
		var resp any
		if err != nil {
			err = fmt.Errorf("core: find gateway: %w", err)
		} else {
			hops += res.Hops
			sp.Step(string(res.Node.Addr), noteOverlayLookup).Int(res.Hops)
			resp, err = p.call(res.Node.Addr, queryIndexReq{Key: individualKey, Objects: []ids.ID{id}})
		}
		if err != nil {
			// Gateway unresolvable or unreachable: fall through to the
			// next live replica of its individual bucket in ring order.
			e, h, found, _ := p.replicaFallthrough(individualKey, id, id, res.Node.Addr)
			hops += h
			if found {
				sp.Step(string(p.node.Addr()), noteReplicaObject).Str(string(obj))
				return e, hops, nil
			}
			return IndexEntry{}, hops, err
		}
		if res.Node.Addr != p.node.Addr() {
			hops++
		}
		qr := resp.(queryIndexResp)
		if len(qr.Entries) == 0 {
			return IndexEntry{}, hops, ErrNotTracked
		}
		return qr.Entries[0], hops, nil
	}

	lp := p.pm.Lp()
	pfx := ids.PrefixOf(id, lp)
	entry, h, found, delegated := p.queryGateway(pfx, id, sp)
	hops += h
	if found {
		return entry, hops, nil
	}

	// Bidirectional linear search (Section IV-A3). Records can only sit
	// below the current level if the bucket delegated (Data Triangle)
	// or Lp has been longer; only above it if Lp has been shorter.
	lo, hi := p.pm.LpRange()

	// Descend the triangle along the object's own bits (the object's
	// next bit selects which child can hold it), while buckets report
	// delegation or history allows deeper records.
	child := pfx
	for depth := 0; (delegated || hi > child.Len) && depth < p.cfg.MaxDescent && child.Len < ids.MaxKeyLen; depth++ {
		child = child.Child(child.NextBit(id))
		entry, h, found, delegated = p.queryGateway(child, id, sp)
		hops += h
		if found {
			return entry, hops, nil
		}
	}

	// Ascend towards the shortest historical level (grouping
	// inconsistencies after Lp changes).
	lmin := p.pm.LMin()
	if lo > lmin {
		lmin = lo
	}
	for cur := pfx; cur.Len > lmin; {
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
			if c.Len != pfx.Len { // skip re-querying the original prefix
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

// queryGateway asks the gateway of one prefix for one object's record.
func (p *Peer) queryGateway(pfx ids.Prefix, id ids.ID, sp *telemetry.Recording) (IndexEntry, int, bool, bool) {
	hops := 0
	gwRef, err := p.resolveGateway(pfx)
	var resp any
	if err == nil {
		resp, err = p.call(gwRef.Addr, queryIndexReq{Key: pfx.Key(), Objects: []ids.ID{id}})
		if gwRef.Addr != p.node.Addr() {
			hops++
		}
		if err != nil {
			sp.Step(string(gwRef.Addr), noteUnreachable).Prefix(pfx.Key()).Str(err.Error())
		}
	}
	if err != nil {
		// Deterministic failover: serve from the next live replica of
		// the bucket in ring order, so the crash window never returns
		// an empty answer while a replica holds the record. Even the
		// gateway resolution can die with the primary (the lookup
		// terminates at the crashed owner, and gwRef stays empty); the
		// replica set is still reachable through lookup provenance.
		e, h, found, delegated := p.replicaFallthrough(pfx.Key(), pfx.GatewayID(), id, gwRef.Addr)
		hops += h
		if found {
			sp.Step(string(p.node.Addr()), noteReplicaBucket).Prefix(pfx.Key())
		}
		return e, hops, found, delegated
	}
	qr := resp.(queryIndexResp)
	if len(qr.Entries) == 0 {
		sp.Step(string(gwRef.Addr), noteMiss).Prefix(pfx.Key()).Bool(qr.Delegated)
		return IndexEntry{}, hops, false, qr.Delegated
	}
	sp.Step(string(gwRef.Addr), noteHit).Prefix(pfx.Key()).Str(string(qr.Entries[0].Latest))
	return qr.Entries[0], hops, true, qr.Delegated
}

// fetchVisits retrieves an object's visit records from a node (free
// when local).
func (p *Peer) fetchVisits(node moods.NodeName, obj moods.ObjectID) ([]VisitRecord, int, error) {
	if transport.Addr(node) == p.node.Addr() {
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
	// Walk the IOP list backwards until a visit at or before t.
	cur := entry.Latest
	bound := time.Duration(-1)
	for steps := 0; steps < maxWalk; steps++ {
		visits, h, err := p.fetchVisitsRead(cur, obj)
		hops += h
		if err != nil {
			return LocateResult{Hops: hops}, err
		}
		v, ok := pickVisit(visits, bound)
		if !ok {
			return LocateResult{Hops: hops}, fmt.Errorf("core: broken IOP chain for %s at %s", obj, cur)
		}
		sp.Step(string(cur), noteWalk).Dur(v.Arrived)
		if v.Arrived <= t {
			return LocateResult{Node: cur, Hops: hops}, nil
		}
		if v.From == "" {
			// Object entered the network after t.
			return LocateResult{Node: moods.Nowhere, Hops: hops}, nil
		}
		cur = v.From
		bound = v.Arrived
	}
	return LocateResult{Hops: hops}, fmt.Errorf("core: IOP walk exceeded %d steps for %s", maxWalk, obj)
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
	path, h, err := p.walkBack(entry.Latest, obj, -1, t1, t2, sp)
	hops += h
	return TraceResult{Path: path, Hops: hops}, err
}

// FullTrace answers the paper's evaluation query "Where has object oi
// been?" — the lifetime trajectory.
func (p *Peer) FullTrace(obj moods.ObjectID) (TraceResult, error) {
	return p.Trace(obj, 0, 1<<62)
}

// walkBack traverses the IOP list backwards from node start, collecting
// visits within [t1, t2] plus the visit occupied at t1, and returns the
// path in forward (time) order.
func (p *Peer) walkBack(start moods.NodeName, obj moods.ObjectID, bound time.Duration, t1, t2 time.Duration, sp *telemetry.Recording) (moods.Path, int, error) {
	var rev []moods.Visit
	hops := 0
	cur := start
	for steps := 0; steps < maxWalk; steps++ {
		if cur == moods.Nowhere {
			break
		}
		visits, h, err := p.fetchVisitsRead(cur, obj)
		hops += h
		if err != nil {
			return nil, hops, err
		}
		v, ok := pickVisit(visits, bound)
		if !ok {
			return nil, hops, fmt.Errorf("core: broken IOP chain for %s at %s", obj, cur)
		}
		sp.Step(string(cur), noteWalk).Dur(v.Arrived)
		if v.Arrived <= t2 {
			rev = append(rev, moods.Visit{Node: cur, Arrived: v.Arrived})
		}
		if v.Arrived < t1 || v.From == "" {
			// The visit occupied at t1 (already collected) closes the
			// walk; so does the head of the list.
			break
		}
		cur = v.From
		bound = v.Arrived
	}
	// Reverse into time order.
	path := make(moods.Path, len(rev))
	for i, v := range rev {
		path[len(rev)-1-i] = v
	}
	// Visits collected below t1: only the single opener should remain.
	// walkBack collects at most one (it breaks right after), so nothing
	// to trim.
	return path, hops, nil
}
