package core

import (
	"errors"
	"sort"
	"sync"
	"time"

	"peertrack/internal/moods"
	"peertrack/internal/transport"
)

// Prediction of future object status — the paper's future-work
// direction ("predicting future status of objects ... using statistical
// and probabilistic techniques", Section VII). Every node already
// observes, through the IOP protocol, where objects that pass through
// it go next and how long they dwell; aggregating those transitions
// gives each node an empirical next-hop distribution. PredictNext
// locates an object and consults its current node's distribution.

// ErrNoPrediction is returned when the object's current node has no
// outbound history to generalise from.
var ErrNoPrediction = errors.New("core: no transition history for prediction")

// Prediction is a probabilistic next-location estimate.
type Prediction struct {
	// Current is the object's current node.
	Current moods.NodeName
	// Next is the most likely next node.
	Next moods.NodeName
	// Probability is the empirical fraction of past departures from
	// Current that went to Next.
	Probability float64
	// ETA is the predicted arrival time at Next: the object's arrival
	// at Current plus the mean historical dwell before departures to
	// Next.
	ETA time.Duration
	// Hops is the query's network cost.
	Hops int
}

// transitionStats aggregates one node's outbound movements.
type transitionStats struct {
	mu    sync.Mutex
	byDst map[moods.NodeName]*edgeStat
}

type edgeStat struct {
	count      int
	totalDwell time.Duration
}

func newTransitionStats() *transitionStats {
	return &transitionStats{byDst: make(map[moods.NodeName]*edgeStat)}
}

// record notes that an object which arrived here at arrived departed to
// dst at departed.
func (t *transitionStats) record(dst moods.NodeName, dwell time.Duration) {
	if dwell < 0 {
		dwell = 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.byDst[dst]
	if !ok {
		e = &edgeStat{}
		t.byDst[dst] = e
	}
	e.count++
	e.totalDwell += dwell
}

// model returns the distribution, sorted by destination: prediction
// breaks count ties by scan order, so map iteration order here would
// make PredictNext nondeterministic.
func (t *transitionStats) model() transModelResp {
	t.mu.Lock()
	defer t.mu.Unlock()
	var m transModelResp
	for d := range t.byDst {
		m.Dests = append(m.Dests, d)
	}
	sort.Slice(m.Dests, func(i, j int) bool { return m.Dests[i] < m.Dests[j] })
	for _, d := range m.Dests {
		e := t.byDst[d]
		m.Counts = append(m.Counts, e.count)
		m.MeanDwell = append(m.MeanDwell, e.totalDwell/time.Duration(e.count))
	}
	return m
}

// transModelReq asks a node for its outbound transition distribution.
type transModelReq struct{}

type transModelResp struct {
	Dests     []moods.NodeName
	Counts    []int
	MeanDwell []time.Duration
}

func (r transModelResp) WireSize() int {
	n := 0
	for _, d := range r.Dests {
		n += len(d) + 16
	}
	return n
}

func (transModelReq) AppendWire(b []byte) []byte { return b }

func (m transModelResp) AppendWire(b []byte) []byte {
	b = transport.AppendSlice(b, m.Dests, transport.AppendString[moods.NodeName])
	b = transport.AppendSlice(b, m.Counts, transport.AppendInt[int])
	return transport.AppendSlice(b, m.MeanDwell, transport.AppendInt[time.Duration])
}

func readTransModelResp(r *transport.Reader) transModelResp {
	return transModelResp{
		Dests:     transport.ReadSlice(r, stringWireMin, transport.ReadString[moods.NodeName]),
		Counts:    transport.ReadSlice(r, 8, func(r *transport.Reader) int { return int(r.Int()) }),
		MeanDwell: transport.ReadSlice(r, 8, func(r *transport.Reader) time.Duration { return time.Duration(r.Int()) }),
	}
}

// PredictNext predicts where an object will move next and when, from
// the empirical next-hop distribution of its current node.
func (p *Peer) PredictNext(obj moods.ObjectID) (Prediction, error) {
	entry, hops, err := p.findIndex(obj, nil)
	if err != nil {
		return Prediction{Hops: hops}, err
	}
	var resp any
	if transport.Addr(entry.Latest) == p.chord.Addr() {
		resp, err = p.handleRPC(p.chord.Addr(), transModelReq{})
	} else {
		resp, err = p.call(transport.Addr(entry.Latest), transModelReq{})
		hops++
	}
	if err != nil {
		return Prediction{Hops: hops}, err
	}
	m := resp.(transModelResp)
	if len(m.Dests) == 0 {
		return Prediction{Current: entry.Latest, Hops: hops}, ErrNoPrediction
	}
	total, best := 0, 0
	for i, c := range m.Counts {
		total += c
		if c > m.Counts[best] {
			best = i
		}
	}
	return Prediction{
		Current:     entry.Latest,
		Next:        m.Dests[best],
		Probability: float64(m.Counts[best]) / float64(total),
		ETA:         entry.Arrived + m.MeanDwell[best],
		Hops:        hops,
	}, nil
}
