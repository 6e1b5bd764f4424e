// Package fleet runs the live stack trackd runs — peertrack.Node on
// loopback TCP behind the ctlapi HTTP handler — as several nodes inside
// the benchmark's own process, and gives the benchmark what it needs
// around it: a ring check, a flush barrier, merged telemetry and a
// span at the boundary between ctlapi and the node.
package fleet

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"peertrack"
	"peertrack/bench/internal/span"
	"peertrack/internal/ctlapi"
	"peertrack/internal/telemetry"
)

// Member is one node of the fleet with its control API.
type Member struct {
	Index int
	Node  *peertrack.Node
	URL   string // control API root

	srv *http.Server
	rec *span.Recorder
	// pending maps an object to the id of the request a client is about
	// to send for it, so the node span recorded on the server side can
	// carry the request's id. Two requests for one object at one member
	// at one instant would share an id; the workloads make that rare
	// and the spans affected stay well formed.
	pending sync.Map
}

// Fleet is a joined ring of members.
type Fleet struct {
	Members []*Member
}

// Start brings up n nodes with NetworkSize pinned to n and every other
// option at its default except Replicas, joins them through the first,
// fronts each with the control API on its own loopback server, and
// waits until the ring has settled. rec may be nil.
func Start(n, replicas int, rec *span.Recorder) (*Fleet, error) {
	f := &Fleet{}
	for i := 0; i < n; i++ {
		node, err := startNode(i, peertrack.NodeOptions{
			NetworkSize: float64(n),
			Replicas:    replicas,
		})
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("fleet: start node %d: %w", i, err)
		}
		m := &Member{Index: i, Node: node, rec: rec}
		f.Members = append(f.Members, m)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("fleet: control listener %d: %w", i, err)
		}
		m.URL = "http://" + ln.Addr().String()
		m.srv = &http.Server{Handler: ctlapi.HandlerWithTelemetry(backend{m}, time.Now, node.Telemetry())}
		go m.srv.Serve(ln) // returns when Close closes the server
	}
	for _, m := range f.Members[1:] {
		if err := m.Node.Join(f.Members[0].Node.Addr()); err != nil {
			f.Close()
			return nil, fmt.Errorf("fleet: join node %d: %w", m.Index, err)
		}
	}
	if err := f.WaitSettled(60 * time.Second); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// A node's ring position is the hash of its address, so the P2P ports
// are fixed: every run, of this build or another, measures the same
// ring — the same gateways for the same prefixes, the same share of
// queries answered without a round trip. They lie below the ephemeral
// range the control connections draw from. A port that is taken moves
// that node portStep up, at most portTries times.
const (
	basePort  = 21000
	portStep  = 100
	portTries = 20
)

func startNode(i int, opts peertrack.NodeOptions) (*peertrack.Node, error) {
	var err error
	for try := 0; try < portTries; try++ {
		var node *peertrack.Node
		node, err = peertrack.StartNode(fmt.Sprintf("127.0.0.1:%d", basePort+i+try*portStep), opts)
		if err == nil {
			return node, nil
		}
	}
	return nil, err
}

// Close stops the control servers and the nodes.
func (f *Fleet) Close() {
	for _, m := range f.Members {
		if m.srv != nil {
			m.srv.Close()
		}
	}
	for _, m := range f.Members {
		m.Node.Close() // a leave error at shutdown changes nothing measured
	}
}

// CheckRing walks successor pointers, then predecessor pointers, from
// the first member and requires each walk to visit every member once
// and return to its start: the ring is one cycle over the whole fleet,
// which a stabilised Chord ring must be before lookups are timed.
func (f *Fleet) CheckRing() error {
	byAddr := make(map[string]*Member, len(f.Members))
	for _, m := range f.Members {
		byAddr[m.Node.Addr()] = m
	}
	for _, dir := range []string{"successor", "predecessor"} {
		seen := make(map[int]bool, len(f.Members))
		cur := f.Members[0]
		for range f.Members {
			if seen[cur.Index] {
				return fmt.Errorf("fleet: %s walk revisits node %d after %d of %d nodes", dir, cur.Index, len(seen), len(f.Members))
			}
			seen[cur.Index] = true
			succ, pred, _ := cur.Node.RingInfo()
			next := succ
			if dir == "predecessor" {
				next = pred
			}
			nm, ok := byAddr[next]
			if !ok {
				return fmt.Errorf("fleet: node %d has %s %q, not a fleet member", cur.Index, dir, next)
			}
			cur = nm
		}
		if cur != f.Members[0] {
			return fmt.Errorf("fleet: %s walk over %d nodes does not close", dir, len(f.Members))
		}
	}
	return nil
}

// SettleRounds is the number of stabilise rounds every node must have
// run before the fleet counts as settled. The ring of 16 closes after
// two or three rounds of the 2 s cadence depending on where the
// ephemeral ports put the nodes on it; waiting for the third round
// either way keeps set-up time from being bimodal and gives every
// finger table the same number of repair passes.
const SettleRounds = 3

// WaitSettled polls until CheckRing holds and every node has run
// SettleRounds stabilise rounds, or the timeout passes.
func (f *Fleet) WaitSettled(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		err := f.CheckRing()
		if err == nil {
			for _, m := range f.Members {
				if n := m.Node.Telemetry().Counter("chord.stabilize.rounds").Value(); n < SettleRounds {
					err = fmt.Errorf("fleet: node %d has run %d of %d stabilise rounds", m.Index, n, SettleRounds)
					break
				}
			}
		}
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ring not settled after %v: %w", timeout, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Barrier makes every event accepted so far queryable: it flushes every
// node's capture window until none holds a buffered event and no flush
// is in flight anywhere (the flush counter is bumped when a flush
// starts, the groups histogram when it ends, so their difference is the
// number of flushes under way, the nodes' own timer flushes included).
func (f *Fleet) Barrier() error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		var wg sync.WaitGroup
		for _, m := range f.Members {
			wg.Add(1)
			go func(m *Member) {
				defer wg.Done()
				// A failed group send re-buffers its events; the loop
				// sees them in the gauge and flushes again.
				_ = m.Node.Flush()
			}(m)
		}
		wg.Wait()
		for {
			var buffered, started, ended int64
			for _, m := range f.Members {
				reg := m.Node.Telemetry()
				// Read ended first: a flush that starts between the two
				// reads then shows as in flight, never as finished.
				ended += int64(reg.Histogram("core.window.groups", telemetry.GroupBuckets()).Count())
				started += int64(reg.Counter("core.window.flushes").Value())
				buffered += reg.Gauge("core.window.buffered").Value()
			}
			if started == ended {
				if buffered == 0 {
					return nil
				}
				break // flush again
			}
			if time.Now().After(deadline) {
				return errors.New("fleet: flush barrier did not settle in 60s")
			}
			time.Sleep(200 * time.Microsecond)
		}
		if time.Now().After(deadline) {
			return errors.New("fleet: flush barrier did not drain in 60s")
		}
	}
}

// Snapshot merges every member's telemetry.
func (f *Fleet) Snapshot() telemetry.Snapshot {
	var out telemetry.Snapshot
	for _, m := range f.Members {
		out = out.Merge(m.Node.Telemetry().Snapshot())
	}
	return out
}

// Expect tells the member which request is about to ask for object, so
// the node span it records carries that id. No-op when not tracing.
func (m *Member) Expect(object string, id uint64) {
	if m.rec.On() {
		m.pending.Store(object, id)
	}
}

// backend adapts a member's node to the control API, as cmd/trackd's
// adapter does, and records the node.<op> span around each call.
type backend struct{ m *Member }

// begin reads the span clock when the run is traced.
func (b backend) begin() (start time.Duration, on bool) {
	if !b.m.rec.On() {
		return 0, false
	}
	return b.m.rec.Now(), true
}

func (b backend) end(op, object string, start time.Duration) {
	id, _ := b.m.pending.Load(object)
	rid, _ := id.(uint64)
	b.m.rec.Add(span.Span{ID: rid, Name: "node." + op, Op: op, Node: b.m.Index, Start: start, End: b.m.rec.Now()})
}

func (b backend) Addr() string { return b.m.Node.Addr() }

func (b backend) ObserveAt(object string, at time.Time) error {
	start, on := b.begin()
	err := b.m.Node.ObserveAt(object, at)
	if on {
		b.end("observe", object, start)
	}
	return err
}

func (b backend) LocateAt(object string, at time.Time) (string, int, error) {
	start, on := b.begin()
	node, stats, err := b.m.Node.Locate(object, at)
	if on {
		b.end("locate", object, start)
	}
	return node, stats.Hops, mapErr(err)
}

func (b backend) TraceOf(object string) ([]ctlapi.Stop, int, error) {
	start, on := b.begin()
	stops, stats, err := b.m.Node.Trace(object)
	if on {
		b.end("trace", object, start)
	}
	return toCtlStops(stops), stats.Hops, mapErr(err)
}

func (b backend) TraceBetween(object string, from, to time.Time) ([]ctlapi.Stop, int, error) {
	stops, stats, err := b.m.Node.TraceBetween(object, from, to)
	return toCtlStops(stops), stats.Hops, mapErr(err)
}

func (b backend) ResolveTrace(object string) ([]ctlapi.Stop, int, error) {
	stops, stats, err := b.m.Node.ResolveTrace(object)
	return toCtlStops(stops), stats.Hops, mapErr(err)
}

func (b backend) Pack(parent string, children []string) error {
	return b.m.Node.Pack(parent, children)
}

func (b backend) Unpack(parent string, children []string) error {
	return b.m.Node.Unpack(parent, children)
}

func (b backend) PredictOf(object string) (ctlapi.Forecast, error) {
	pred, stats, err := b.m.Node.PredictNext(object)
	if err != nil {
		return ctlapi.Forecast{}, mapErr(err)
	}
	return ctlapi.Forecast{
		Current: pred.Current, Next: pred.Next, Probability: pred.Probability,
		ETA: time.Unix(0, 0).Add(pred.ETA), Hops: stats.Hops,
	}, nil
}

func (b backend) InventoryList() []string { return b.m.Node.Inventory() }

func (b backend) Stats() (int, int) { return b.m.Node.StorageStats() }

func (b backend) Ring() (string, string, int) { return b.m.Node.RingInfo() }

func (b backend) Persist() (int64, error) {
	return 0, errors.New("fleet: the benchmark keeps no snapshot file")
}

func toCtlStops(stops []peertrack.Stop) []ctlapi.Stop {
	out := make([]ctlapi.Stop, len(stops))
	for i, s := range stops {
		out[i] = ctlapi.Stop{Node: s.Node, Arrived: time.Unix(0, 0).Add(s.Arrived)}
	}
	return out
}

func mapErr(err error) error {
	if errors.Is(err, peertrack.ErrNotTracked) || errors.Is(err, peertrack.ErrNoPrediction) {
		return fmt.Errorf("%w: %v", ctlapi.ErrNotTracked, err)
	}
	return err
}
