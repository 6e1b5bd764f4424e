package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"peertrack/internal/ids"
	"peertrack/internal/moods"
	"peertrack/internal/transport"
)

// Containment: EPCIS-style aggregation events. In real supply chains
// items rarely travel naked — cases are packed onto SSCC-identified
// pallets and only the pallet is read at each portal. The paper's model
// tracks whatever the receptors see; containment closes the gap between
// "what was read" (the pallet) and "what the application asks about"
// (the case inside it).
//
// A Pack event at a node opens a containment interval (child inside
// parent from time t); an Unpack event closes it. Containment records
// are indexed in the DHT at the gateway of a child-derived key, so any
// node can resolve them. ResolveTrace then answers the child's full
// trajectory by splicing the parent's movements into each containment
// interval — recursively, so a case inside a pallet inside a container
// resolves through both layers.

// ContainmentRecord is one packing interval of a child object.
type ContainmentRecord struct {
	Child  moods.ObjectID
	Parent moods.ObjectID
	// From is when the child was packed; To is when it was unpacked
	// (zero = still inside).
	From time.Duration
	To   time.Duration
	// At is the node where the packing happened.
	At moods.NodeName
}

func (r ContainmentRecord) open() bool { return r.To == 0 }

// containKey derives the DHT key under which a child's containment
// records are indexed.
func containKey(child moods.ObjectID) ids.ID {
	return ids.HashString("contain:" + string(child))
}

// containPutReq stores or closes containment records at their gateway.
type containPutReq struct {
	Records []ContainmentRecord
	// Close updates the matching open records' To instead of inserting.
	Close bool
}

func (r containPutReq) WireSize() int {
	n := 1
	for _, c := range r.Records {
		n += len(c.Child) + len(c.Parent) + len(c.At) + 16
	}
	return n
}

type containPutResp struct{}

// containGetReq fetches a child's containment history.
type containGetReq struct {
	Child moods.ObjectID
}

func (r containGetReq) WireSize() int { return len(r.Child) }

type containGetResp struct {
	Records []ContainmentRecord
}

func (r containGetResp) WireSize() int { return len(r.Records) * 64 }

func appendContainment(b []byte, c ContainmentRecord) []byte {
	b = transport.AppendString(transport.AppendString(b, c.Child), c.Parent)
	return transport.AppendString(transport.AppendInt(transport.AppendInt(b, c.From), c.To), c.At)
}

func readContainment(r *transport.Reader) ContainmentRecord {
	return ContainmentRecord{
		Child:  moods.ObjectID(r.String()),
		Parent: moods.ObjectID(r.String()),
		From:   time.Duration(r.Int()),
		To:     time.Duration(r.Int()),
		At:     moods.NodeName(r.String()),
	}
}

func appendContainments(b []byte, cs []ContainmentRecord) []byte {
	return transport.AppendSlice(b, cs, appendContainment)
}

func readContainments(r *transport.Reader) []ContainmentRecord {
	return transport.ReadSlice(r, 3*stringWireMin+16, readContainment)
}

func (m containPutReq) AppendWire(b []byte) []byte {
	return transport.AppendBool(appendContainments(b, m.Records), m.Close)
}

func readContainPutReq(r *transport.Reader) containPutReq {
	return containPutReq{Records: readContainments(r), Close: r.Bool()}
}

func (containPutResp) AppendWire(b []byte) []byte { return b }

func (m containGetReq) AppendWire(b []byte) []byte { return transport.AppendString(b, m.Child) }

func readContainGetReq(r *transport.Reader) containGetReq {
	return containGetReq{Child: moods.ObjectID(r.String())}
}

func (m containGetResp) AppendWire(b []byte) []byte { return appendContainments(b, m.Records) }

func readContainGetResp(r *transport.Reader) containGetResp {
	return containGetResp{Records: readContainments(r)}
}

// handleContainment serves the containment protocol (chained from the
// peer's handler); returns handled=false for foreign messages.
func (p *Peer) handleContainment(req any) (any, bool) {
	switch r := req.(type) {
	case containPutReq:
		p.contain.mu.Lock()
		for _, rec := range r.Records {
			if r.Close {
				s := p.contain.byChild[rec.Child]
				for i := len(s) - 1; i >= 0; i-- {
					if s[i].Parent == rec.Parent && s[i].open() {
						s[i].To = rec.To
						break
					}
				}
			} else {
				p.contain.byChild[rec.Child] = append(p.contain.byChild[rec.Child], rec)
			}
		}
		p.contain.mu.Unlock()
		return containPutResp{}, true
	case containGetReq:
		p.contain.mu.RLock()
		recs := append([]ContainmentRecord(nil), p.contain.byChild[r.Child]...)
		p.contain.mu.RUnlock()
		return containGetResp{Records: recs}, true
	default:
		return nil, false
	}
}

// Pack records an aggregation event: children packed into parent at
// this node at time at. The parent itself keeps being observed by
// receptors; the children stop generating reads until unpacked.
func (p *Peer) Pack(parent moods.ObjectID, children []moods.ObjectID, at time.Duration) error {
	for _, child := range children {
		rec := ContainmentRecord{
			Child: child, Parent: parent, From: at, At: p.Name(),
		}
		if err := p.sendContainment(child, containPutReq{Records: []ContainmentRecord{rec}}); err != nil {
			return fmt.Errorf("core: pack %s into %s: %w", child, parent, err)
		}
	}
	return nil
}

// Unpack closes the containment interval of children inside parent.
func (p *Peer) Unpack(parent moods.ObjectID, children []moods.ObjectID, at time.Duration) error {
	for _, child := range children {
		rec := ContainmentRecord{Child: child, Parent: parent, To: at}
		if err := p.sendContainment(child, containPutReq{Records: []ContainmentRecord{rec}, Close: true}); err != nil {
			return fmt.Errorf("core: unpack %s from %s: %w", child, parent, err)
		}
	}
	return nil
}

func (p *Peer) sendContainment(child moods.ObjectID, req containPutReq) error {
	res, err := p.chord.Lookup(containKey(child))
	if err != nil {
		return err
	}
	_, err = p.call(res.Node.Addr, req)
	return err
}

// Containments fetches a child's containment history from its gateway.
func (p *Peer) Containments(child moods.ObjectID) ([]ContainmentRecord, int, error) {
	res, err := p.chord.Lookup(containKey(child))
	if err != nil {
		return nil, 0, err
	}
	hops := res.Hops
	resp, err := p.call(res.Node.Addr, containGetReq{Child: child})
	if res.Node.Addr != p.chord.Addr() {
		hops++
	}
	if err != nil {
		return nil, hops, err
	}
	return resp.(containGetResp).Records, hops, nil
}

// maxContainmentDepth bounds recursive resolution (case → pallet →
// container → vessel is depth 3; cycles are a data error).
const maxContainmentDepth = 8

// ResolveTrace answers the full trajectory of an object including the
// movements it made while packed inside parents. Direct observations
// and spliced parent segments are merged in time order.
func (p *Peer) ResolveTrace(obj moods.ObjectID) (TraceResult, error) {
	return p.resolveTrace(obj, 0, 1<<62, maxContainmentDepth)
}

func (p *Peer) resolveTrace(obj moods.ObjectID, t1, t2 time.Duration, depth int) (TraceResult, error) {
	if depth <= 0 {
		return TraceResult{}, fmt.Errorf("core: containment nesting exceeds %d levels for %s", maxContainmentDepth, obj)
	}
	hops := 0
	var path moods.Path

	// The object's own observations within the window.
	own, err := p.Trace(obj, t1, t2)
	hops += own.Hops
	if err != nil && err != ErrNotTracked {
		return TraceResult{Hops: hops}, err
	}
	path = append(path, own.Path...)

	// Splice parent trajectories over each containment interval that
	// overlaps the window.
	recs, h, err := p.Containments(obj)
	hops += h
	if err != nil {
		return TraceResult{Hops: hops}, err
	}
	for _, rec := range recs {
		from, to := rec.From, rec.To
		if rec.open() {
			to = t2
		}
		if from < t1 {
			from = t1
		}
		if to > t2 {
			to = t2
		}
		if from >= to {
			continue
		}
		parentSeg, err := p.resolveTrace(rec.Parent, from, to, depth-1)
		hops += parentSeg.Hops
		if err != nil {
			if err == ErrNotTracked {
				continue
			}
			return TraceResult{Hops: hops}, err
		}
		// Drop the parent's opening visit if it predates the packing
		// (the child was not yet aboard) or duplicates the packing node.
		for _, v := range parentSeg.Path {
			if v.Arrived < rec.From {
				continue
			}
			path = append(path, v)
		}
	}

	sort.SliceStable(path, func(i, j int) bool { return path[i].Arrived < path[j].Arrived })
	path = dedupeVisits(path)
	if len(path) == 0 {
		return TraceResult{Hops: hops}, ErrNotTracked
	}
	return TraceResult{Path: path, Hops: hops}, nil
}

// dedupeVisits collapses adjacent duplicates (same node, ~same time)
// that arise when both the child's own read and the spliced parent
// segment report the same stop.
func dedupeVisits(path moods.Path) moods.Path {
	if len(path) == 0 {
		return path
	}
	out := path[:1]
	for _, v := range path[1:] {
		last := out[len(out)-1]
		if v.Node == last.Node && v.Arrived-last.Arrived < time.Minute {
			continue
		}
		out = append(out, v)
	}
	return out
}

// containStore holds containment records at their gateway node.
type containStore struct {
	mu      sync.RWMutex
	byChild map[moods.ObjectID][]ContainmentRecord
}

func newContainStore() *containStore {
	return &containStore{byChild: make(map[moods.ObjectID][]ContainmentRecord)}
}
