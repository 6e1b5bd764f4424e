// Package peertrack is a peer-to-peer object-tracking library for
// RFID/EPC traceability networks — a complete implementation of the
// system described in "P2P Object Tracking in the Internet of Things"
// (Wu, Sheng, Ranasinghe; ICPP 2011).
//
// Participants (organisations) form a Chord DHT. Every capture event is
// stored in the capturing organisation's local repository; the object's
// latest location is indexed at a deterministic, anonymously chosen
// gateway node; and the gateway stitches per-object doubly-linked
// movement paths (IOP) across organisations, so locate and trace
// queries touch only the nodes on an object's path. High-volume sites
// batch arrivals into adaptive windows and index whole hashed-id prefix
// groups with one message.
//
// Two entry points:
//
//   - Simulation: an in-process network of any size driven by a virtual
//     clock, with exact message accounting — for experiments, capacity
//     planning, and tests. See NewSimulation.
//   - Node: a live network participant speaking the same protocol over
//     TCP — for real deployments. See StartNode.
package peertrack

import (
	"fmt"
	"time"

	"peertrack/internal/core"
	"peertrack/internal/moods"
)

// Stop is one stop on an object's trace.
type Stop struct {
	// Node is the organisation/location name.
	Node string
	// Arrived is when the object was captured there (offset from the
	// network epoch for simulations; wall-clock for live nodes).
	Arrived time.Duration
}

// traced converts a trace result into the facade's form: its stops and
// its hop count. A live node answers with it as is; a simulation prices
// the hops on top.
func traced(res core.TraceResult, err error) ([]Stop, QueryStats, error) {
	stats := QueryStats{Hops: res.Hops}
	if err != nil {
		return nil, stats, err
	}
	out := make([]Stop, len(res.Path))
	for i, v := range res.Path {
		out[i] = Stop{Node: string(v.Node), Arrived: v.Arrived}
	}
	return out, stats, nil
}

// QueryStats reports what a query cost.
type QueryStats struct {
	// Hops is the number of network round trips used.
	Hops int
	// Time is the modelled latency (Hops × hop latency) for simulated
	// networks.
	Time time.Duration
}

// IndexingMode selects how arrivals are indexed.
type IndexingMode = core.Mode

const (
	// Individual indexes each arrival with its own gateway message
	// exchange.
	Individual = core.IndividualIndexing
	// Grouped batches arrivals into adaptive windows and indexes
	// hashed-id prefix groups (the paper's enhanced algorithm; default).
	Grouped = core.GroupIndexing
)

// Simulation is an in-process traceable network.
type Simulation struct {
	nw *core.Network
}

// SimOptions configures NewSimulation. The zero value gives a 64-node
// grouped-indexing network.
type SimOptions struct {
	// Nodes is the number of organisations (default 64).
	Nodes int
	// Mode is Individual or Grouped (default Grouped).
	Mode IndexingMode
	// Seed makes runs reproducible (default 1).
	Seed int64
}

// NewSimulation builds a converged simulated network.
func NewSimulation(opts SimOptions) (*Simulation, error) {
	if opts.Nodes <= 0 {
		opts.Nodes = 64
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	nw, err := core.BuildNetwork(core.NetworkConfig{
		Nodes: opts.Nodes,
		Seed:  opts.Seed,
		Peer:  core.Config{Mode: opts.Mode},
	})
	if err != nil {
		return nil, err
	}
	return &Simulation{nw: nw}, nil
}

// Nodes returns the organisation names, in ring order.
func (s *Simulation) Nodes() []string {
	out := make([]string, 0, s.nw.Size())
	for _, p := range s.nw.Peers() {
		out = append(out, string(p.Name()))
	}
	return out
}

// Observe schedules a capture event: object (raw id, e.g. an EPC URN)
// read at node at virtual time at.
func (s *Simulation) Observe(node, object string, at time.Duration) error {
	return s.nw.ScheduleObservation(moods.Observation{
		Object: moods.ObjectID(object),
		Node:   moods.NodeName(node),
		At:     at,
	})
}

// Run plays all scheduled events, closing capture windows periodically
// until the given horizon.
func (s *Simulation) Run(until time.Duration) {
	s.nw.StartWindows(until)
	s.nw.Run()
}

// peer returns the organisation named name.
func (s *Simulation) peer(name string) (*core.Peer, error) {
	p, ok := s.nw.PeerByName(moods.NodeName(name))
	if !ok {
		return nil, fmt.Errorf("peertrack: unknown node %q", name)
	}
	return p, nil
}

// Locate answers "where was this object at time t?" from the given
// querying node (any node may ask).
func (s *Simulation) Locate(fromNode, object string, at time.Duration) (string, QueryStats, error) {
	p, err := s.peer(fromNode)
	if err != nil {
		return "", QueryStats{}, err
	}
	res, err := p.Locate(moods.ObjectID(object), at)
	stats := QueryStats{Hops: res.Hops, Time: s.nw.QueryTime(res.Hops)}
	if err != nil {
		return "", stats, err
	}
	return string(res.Node), stats, nil
}

// Trace answers "where has this object been?" — its full trajectory.
func (s *Simulation) Trace(fromNode, object string) ([]Stop, QueryStats, error) {
	p, err := s.peer(fromNode)
	if err != nil {
		return nil, QueryStats{}, err
	}
	return s.traced(p.FullTrace(moods.ObjectID(object)))
}

// TraceBetween answers TR(o, t1, t2): the trajectory within a window.
func (s *Simulation) TraceBetween(fromNode, object string, t1, t2 time.Duration) ([]Stop, QueryStats, error) {
	p, err := s.peer(fromNode)
	if err != nil {
		return nil, QueryStats{}, err
	}
	return s.traced(p.Trace(moods.ObjectID(object), t1, t2))
}

// Messages returns the total protocol messages sent so far — the
// paper's indexing-cost metric.
func (s *Simulation) Messages() uint64 {
	return s.nw.Stats().Snapshot().Messages
}

// Grow adds organisations to the network, re-levelling the group index
// (the splitting process) automatically.
func (s *Simulation) Grow(n int) error {
	_, _, err := s.nw.Grow(n)
	return err
}

// Shrink removes the last n organisations in ring order as voluntary
// departures: their index records migrate to the survivors (the merging
// process); their own observation data leaves with them.
func (s *Simulation) Shrink(n int) error {
	_, _, err := s.nw.Shrink(n)
	return err
}

// Pack schedules an aggregation event: children are packed into parent
// (e.g. cases onto an SSCC pallet) at node at virtual time at. While
// packed, children inherit the parent's movements in ResolveTrace.
func (s *Simulation) Pack(node, parent string, children []string, at time.Duration) error {
	p, err := s.peer(node)
	if err != nil {
		return err
	}
	objs := toObjectIDs(children)
	s.nw.Kernel.At(at, func() {
		p.Pack(moods.ObjectID(parent), objs, at)
	})
	return nil
}

// Unpack schedules the matching disaggregation event.
func (s *Simulation) Unpack(node, parent string, children []string, at time.Duration) error {
	p, err := s.peer(node)
	if err != nil {
		return err
	}
	objs := toObjectIDs(children)
	s.nw.Kernel.At(at, func() {
		p.Unpack(moods.ObjectID(parent), objs, at)
	})
	return nil
}

// ResolveTrace answers an object's full trajectory including movements
// made while packed inside parent containers (recursively).
func (s *Simulation) ResolveTrace(fromNode, object string) ([]Stop, QueryStats, error) {
	p, err := s.peer(fromNode)
	if err != nil {
		return nil, QueryStats{}, err
	}
	return s.traced(p.ResolveTrace(moods.ObjectID(object)))
}

// traced is the package's traced with the hops priced at the network's
// hop latency.
func (s *Simulation) traced(res core.TraceResult, err error) ([]Stop, QueryStats, error) {
	stops, stats, err := traced(res, err)
	stats.Time = s.nw.QueryTime(res.Hops)
	return stops, stats, err
}

func toObjectIDs(ss []string) []moods.ObjectID {
	out := make([]moods.ObjectID, len(ss))
	for i, s := range ss {
		out[i] = moods.ObjectID(s)
	}
	return out
}

// Prediction estimates an object's next movement (Section VII's
// future-work direction, implemented from per-node empirical next-hop
// distributions).
type Prediction struct {
	Current     string        // where the object is now
	Next        string        // most likely next node
	Probability float64       // empirical fraction of past flows going there
	ETA         time.Duration // predicted arrival time at Next
}

// PredictNext predicts where an object will move next based on the
// historical flows through its current location.
func (s *Simulation) PredictNext(fromNode, object string) (Prediction, QueryStats, error) {
	p, err := s.peer(fromNode)
	if err != nil {
		return Prediction{}, QueryStats{}, err
	}
	res, err := p.PredictNext(moods.ObjectID(object))
	stats := QueryStats{Hops: res.Hops, Time: s.nw.QueryTime(res.Hops)}
	if err != nil {
		return Prediction{}, stats, err
	}
	return Prediction{
		Current:     string(res.Current),
		Next:        string(res.Next),
		Probability: res.Probability,
		ETA:         res.ETA,
	}, stats, nil
}

// ErrNoPrediction reports that the object's current node has no
// outbound history to generalise from.
var ErrNoPrediction = core.ErrNoPrediction

// Network exposes the underlying harness for advanced use (experiments,
// fault injection, custom metrics).
func (s *Simulation) Network() *core.Network { return s.nw }

// ErrNotTracked reports that no index exists for the object anywhere in
// the network.
var ErrNotTracked = core.ErrNotTracked
