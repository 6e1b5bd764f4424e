package core

import (
	"sort"
	"time"

	"peertrack/internal/moods"
	"peertrack/internal/transport"
)

// Aggregate queries over the local repositories. The IOP data each node
// already keeps for trace queries doubles as a live inventory: an
// object is present at a node exactly when its newest visit there has
// no outbound link yet (o.to is unset). These queries power the
// "which/how many objects are at node X now?" class of questions the
// related-work section contrasts with single-instance queries — here
// they are answered by the owning node directly, preserving data
// sovereignty (one message, no index).

// inventoryReq asks a node for its current inventory. When WithObjects
// is false only the count is returned, keeping the response small.
type inventoryReq struct {
	WithObjects bool
	MaxObjects  int
}

type inventoryResp struct {
	Count   int
	Objects []moods.ObjectID
}

func (r inventoryResp) WireSize() int {
	n := 8
	for _, o := range r.Objects {
		n += len(o)
	}
	return n
}

// dwellStatsReq asks a node for its dwell-time statistics (how long
// objects stay before moving on), aggregated from its transition model.
type dwellStatsReq struct{}

type dwellStatsResp struct {
	Departures int
	MeanDwell  time.Duration
}

func (m inventoryReq) AppendWire(b []byte) []byte {
	return transport.AppendInt(transport.AppendBool(b, m.WithObjects), m.MaxObjects)
}

func readInventoryReq(r *transport.Reader) inventoryReq {
	return inventoryReq{WithObjects: r.Bool(), MaxObjects: int(r.Int())}
}

func (m inventoryResp) AppendWire(b []byte) []byte {
	return transport.AppendSlice(transport.AppendInt(b, m.Count), m.Objects, transport.AppendString[moods.ObjectID])
}

func readInventoryResp(r *transport.Reader) inventoryResp {
	return inventoryResp{
		Count:   int(r.Int()),
		Objects: transport.ReadSlice(r, stringWireMin, transport.ReadString[moods.ObjectID]),
	}
}

func (dwellStatsReq) AppendWire(b []byte) []byte { return b }

func (m dwellStatsResp) AppendWire(b []byte) []byte {
	return transport.AppendInt(transport.AppendInt(b, m.Departures), m.MeanDwell)
}

func readDwellStatsResp(r *transport.Reader) dwellStatsResp {
	return dwellStatsResp{Departures: int(r.Int()), MeanDwell: time.Duration(r.Int())}
}

// Inventory returns the objects currently present at this node, sorted
// for determinism.
func (p *Peer) Inventory() []moods.ObjectID {
	p.repo.mu.RLock()
	defer p.repo.mu.RUnlock()
	out := make([]moods.ObjectID, 0, len(p.repo.visits))
	for obj, slot := range p.repo.visits {
		if slot.latest().To == "" {
			out = append(out, obj)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// InventoryCount is Inventory without materialising the list.
func (p *Peer) InventoryCount() int {
	p.repo.mu.RLock()
	defer p.repo.mu.RUnlock()
	n := 0
	for _, slot := range p.repo.visits {
		if slot.latest().To == "" {
			n++
		}
	}
	return n
}

// InventoryAt asks another node for its current inventory count (one
// message; hops = 1 unless local).
func (p *Peer) InventoryAt(node moods.NodeName) (int, int, error) {
	if transport.Addr(node) == p.node.Addr() {
		return p.InventoryCount(), 0, nil
	}
	resp, err := p.call(transport.Addr(node), inventoryReq{})
	if err != nil {
		return 0, 1, err
	}
	return resp.(inventoryResp).Count, 1, nil
}

// ObjectsAt asks another node for up to max current objects.
func (p *Peer) ObjectsAt(node moods.NodeName, max int) ([]moods.ObjectID, int, error) {
	if transport.Addr(node) == p.node.Addr() {
		objs := p.Inventory()
		if max > 0 && len(objs) > max {
			objs = objs[:max]
		}
		return objs, 0, nil
	}
	resp, err := p.call(transport.Addr(node), inventoryReq{WithObjects: true, MaxObjects: max})
	if err != nil {
		return nil, 1, err
	}
	r := resp.(inventoryResp)
	return r.Objects, 1, nil
}

// DwellStatsAt asks a node for its departure count and mean dwell time.
func (p *Peer) DwellStatsAt(node moods.NodeName) (int, time.Duration, int, error) {
	var resp any
	var err error
	hops := 0
	if transport.Addr(node) == p.node.Addr() {
		resp, err = p.handleRPC(p.node.Addr(), dwellStatsReq{})
	} else {
		resp, err = p.call(transport.Addr(node), dwellStatsReq{})
		hops = 1
	}
	if err != nil {
		return 0, 0, hops, err
	}
	r := resp.(dwellStatsResp)
	return r.Departures, r.MeanDwell, hops, nil
}

// handleAggregate serves the aggregate protocol; returns handled=false
// for foreign messages.
func (p *Peer) handleAggregate(req any) (any, bool) {
	switch r := req.(type) {
	case inventoryReq:
		resp := inventoryResp{Count: p.InventoryCount()}
		if r.WithObjects {
			objs := p.Inventory()
			if r.MaxObjects > 0 && len(objs) > r.MaxObjects {
				objs = objs[:r.MaxObjects]
			}
			resp.Objects = objs
		}
		return resp, true
	case dwellStatsReq:
		dsts, counts, dwells := p.trans.snapshot()
		_ = dsts
		total := 0
		var weighted time.Duration
		for i, c := range counts {
			total += c
			weighted += dwells[i] * time.Duration(c)
		}
		resp := dwellStatsResp{Departures: total}
		if total > 0 {
			resp.MeanDwell = weighted / time.Duration(total)
		}
		return resp, true
	default:
		return nil, false
	}
}
