package core

import (
	"fmt"
	"time"

	"peertrack/internal/ids"
	"peertrack/internal/moods"
	"peertrack/internal/transport"
)

// Recursive routed queries implement the paper's intermediate-node
// optimization (Section IV-B, analysed in IV-C2): the trace query is
// routed hop by hop towards the object's gateway, and "if during the
// routing, a node along the routing path has the information for the
// queried object, the routing will be terminated and the intermediate
// node will start to process the query" — traversing the IOP list
// backward and forward from itself instead of reaching the gateway.

// routedTraceReq routes a full-trace query towards the gateway key,
// letting every hop short-circuit if it has local IOP data.
type routedTraceReq struct {
	Object moods.ObjectID
	Key    ids.ID        // routing target: the gateway key
	Bucket ids.PrefixKey // gateway bucket to consult on arrival
	TTL    int
}

func (r routedTraceReq) WireSize() int { return len(r.Object) + ids.Bytes + keyWireSize + 2 }

type routedTraceResp struct {
	Found bool
	Path  []moods.Visit
	// Hops counts the downstream RPCs spent after this node (forwards
	// plus IOP walk fetches).
	Hops int
	// Intermediate is true when an intermediate node (not the gateway)
	// answered from its local IOP data.
	Intermediate bool
}

func (r routedTraceResp) WireSize() int { return 8 + len(r.Path)*24 }

func (m routedTraceReq) AppendWire(b []byte) []byte {
	b = transport.AppendID(transport.AppendString(b, m.Object), m.Key)
	return transport.AppendInt(transport.AppendInt(b, m.Bucket), m.TTL)
}

func readRoutedTraceReq(r *transport.Reader) routedTraceReq {
	return routedTraceReq{Object: moods.ObjectID(r.String()), Key: r.ID(), Bucket: r.PrefixKey(), TTL: int(r.Int())}
}

func appendVisit(b []byte, v moods.Visit) []byte {
	return transport.AppendInt(transport.AppendString(b, v.Node), v.Arrived)
}

func readVisit(r *transport.Reader) moods.Visit {
	return moods.Visit{Node: moods.NodeName(r.String()), Arrived: time.Duration(r.Int())}
}

func (m routedTraceResp) AppendWire(b []byte) []byte {
	b = transport.AppendSlice(transport.AppendBool(b, m.Found), m.Path, appendVisit)
	return transport.AppendBool(transport.AppendInt(b, m.Hops), m.Intermediate)
}

func readRoutedTraceResp(r *transport.Reader) routedTraceResp {
	return routedTraceResp{
		Found:        r.Bool(),
		Path:         transport.ReadSlice(r, stringWireMin+8, readVisit),
		Hops:         int(r.Int()),
		Intermediate: r.Bool(),
	}
}

// TraceRouted answers "where has this object been?" using recursive
// routing with the intermediate-node short-circuit. Compare with
// FullTrace, which always consults the gateway via iterative lookup.
func (p *Peer) TraceRouted(obj moods.ObjectID) (TraceResult, error) {
	id := obj.Hash()
	bucket := p.keyOf(id, p.pm.Lp())
	resp, err := p.handleRoutedTrace(p.chord.Addr(), routedTraceReq{
		Object: obj, Key: placedAt(bucket, id), Bucket: bucket, TTL: 64,
	})
	if err != nil {
		return TraceResult{}, err
	}
	r := resp.(routedTraceResp)
	if !r.Found {
		return TraceResult{Hops: r.Hops}, ErrNotTracked
	}
	return TraceResult{Path: moods.Path(r.Path), Hops: r.Hops, Intermediate: r.Intermediate}, nil
}

// handleRoutedTrace processes one hop of a routed trace.
func (p *Peer) handleRoutedTrace(from transport.Addr, r routedTraceReq) (any, error) {
	// Intermediate-node short-circuit: we hold IOP segments for the
	// object, so the whole trace can be assembled from here.
	if p.repo.has(r.Object) {
		path, hops, err := p.serverFullTrace(r.Object)
		if err != nil {
			return routedTraceResp{Hops: hops}, nil
		}
		return routedTraceResp{Found: true, Path: path, Hops: hops, Intermediate: !p.chord.Owns(r.Key)}, nil
	}
	// Gateway: answer from the index (probing triangle children if the
	// record was delegated), then walk the IOP list.
	if p.chord.Owns(r.Key) {
		entry, hops, found := p.gatewayLocalFind(r.Bucket, r.Object)
		if !found {
			return routedTraceResp{Hops: hops}, nil
		}
		path, h, err := p.walkBack(entry.Latest, r.Object, 0, 1<<62, nil)
		hops += h
		if err != nil {
			return routedTraceResp{Hops: hops}, nil
		}
		return routedTraceResp{Found: true, Path: path, Hops: hops}, nil
	}
	// Forward towards the gateway.
	if r.TTL <= 0 {
		return nil, fmt.Errorf("core: routed trace TTL exhausted for %s", r.Object)
	}
	next, _ := p.chord.NextHop(r.Key)
	if next.Addr == p.chord.Addr() {
		return routedTraceResp{}, nil
	}
	fwd := r
	fwd.TTL--
	resp, err := p.call(next.Addr, fwd)
	if err != nil {
		return nil, fmt.Errorf("core: routed trace forward to %s: %w", next.Addr, err)
	}
	out := resp.(routedTraceResp)
	out.Hops++ // the forward RPC itself
	return out, nil
}

// gatewayLocalFind resolves an object's index entry at its gateway:
// local bucket first, then — if the bucket delegated — the Data
// Triangle child chain along the object's bits (the individual bucket
// has none: descend stops at once).
func (p *Peer) gatewayLocalFind(bucket ids.PrefixKey, obj moods.ObjectID) (IndexEntry, int, bool) {
	id := obj.Hash()
	if e, ok := p.gw.lookup(bucket, id); ok {
		return e, 0, true
	}
	return p.descend(bucket, id, p.gw.delegatedFlag(bucket), nil)
}

// serverFullTrace assembles an object's lifetime path starting from
// this node's own IOP segments: backward via From links through the
// latest local visit, then forward via To links.
func (p *Peer) serverFullTrace(obj moods.ObjectID) ([]moods.Visit, int, error) {
	visits, _ := p.repo.get(obj)
	if len(visits) == 0 {
		return nil, 0, fmt.Errorf("core: no local visits for %s", obj)
	}
	latest := visits[len(visits)-1]
	// Backward pass includes this node's latest visit and everything
	// before it (earlier visits here included, via the linked list).
	path, hops, err := p.walkBack(p.Name(), obj, 0, 1<<62, nil)
	if err != nil {
		return nil, hops, err
	}
	// Forward pass from the latest local visit, extending the walk's own
	// slice.
	cur := latest.To
	after := latest.Arrived
	for steps := 0; cur != moods.Nowhere && steps < maxWalk; steps++ {
		vs, h, err := p.fetchVisits(cur, obj)
		hops += h
		if err != nil {
			return path, hops, err
		}
		var v VisitRecord
		found := false
		for _, cand := range vs {
			if cand.Arrived > after {
				v = cand
				found = true
				break
			}
		}
		if !found {
			break
		}
		path = append(path, moods.Visit{Node: cur, Arrived: v.Arrived})
		cur = v.To
		after = v.Arrived
	}
	return path, hops, nil
}
