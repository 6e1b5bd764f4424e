package peertrack

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"peertrack/internal/chord"
	"peertrack/internal/core"
	"peertrack/internal/gossip"
	"peertrack/internal/ids"
	"peertrack/internal/moods"
	"peertrack/internal/sim"
	"peertrack/internal/telemetry"
	"peertrack/internal/transport"
)

// Node is a live traceable-network participant: a Chord node plus the
// PeerTrack protocol served over TCP. Organisations run one Node per
// site, join a bootstrap peer, and feed it their (cleansed) RFID
// capture events.
type Node struct {
	tr   *transport.TCP
	res  *transport.Resilient // nil when resilience is disabled
	peer *core.Peer
	tel  *telemetry.Registry

	mu       sync.Mutex
	closed   bool
	stopCh   chan struct{}
	ringWake chan struct{} // handler goroutines tell the pacer of a ring change; cap 1
	wg       sync.WaitGroup
}

// NodeOptions configures StartNode. The zero value is usable.
type NodeOptions struct {
	// Mode is Individual or Grouped (default Grouped).
	Mode IndexingMode
	// StabilizeEvery is the overlay maintenance cadence of a quiet ring
	// (default 2s); a new ring neighbour pulls the next few rounds in.
	StabilizeEvery time.Duration
	// WindowInterval is T_interval for capture windows (default 1s).
	WindowInterval time.Duration
	// WindowMaxObjects is N_max (default 1024).
	WindowMaxObjects int
	// NetworkSize, when > 0, pins the Nn estimate used for the prefix
	// length instead of deriving it from overlay density. Pin it to the
	// same value on every node of small deployments.
	NetworkSize float64
	// NetworkSecret, when non-empty, enables HMAC authentication of all
	// P2P frames; every node of the network must share it.
	NetworkSecret string
	// Replicas is the total number of copies of every index bucket and
	// IOP repository, including the primary (default 1 = none). Reads
	// fall through to the next live ring successor when a primary is
	// unreachable; set the same value on every node.
	Replicas int

	// DialTimeout bounds TCP connection establishment (default 5s).
	DialTimeout time.Duration
	// CallTimeout bounds one P2P round trip (default 10s).
	CallTimeout time.Duration

	// RPCAttempts is the total attempts per P2P call, first try included
	// (default 3; 1 disables retries).
	RPCAttempts int
	// RPCAttemptTimeout bounds each attempt (default 2s).
	RPCAttemptTimeout time.Duration
	// RPCBudget bounds a whole call — attempts plus backoff (default 8s).
	RPCBudget time.Duration
	// RPCBackoff is the pre-jitter base backoff, doubling per retry up
	// to 1s (default 50ms).
	RPCBackoff time.Duration
	// BreakerThreshold is the number of consecutive transport failures
	// to one peer that opens its circuit breaker (default 5; negative
	// disables circuit breaking).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects calls before
	// admitting a half-open probe (default 3s).
	BreakerCooldown time.Duration
	// NoResilience issues P2P calls directly on the TCP transport: no
	// retries, no breaker, no per-attempt deadlines. The experimental
	// baseline ("factor 1, no retries"); production nodes leave it off.
	NoResilience bool

	// GossipEvery is the membership agent's round cadence: view
	// exchange, failure-detector probes, and the gossip-driven chord
	// repair all fire at this interval (default 1s; negative disables
	// the agent entirely — dead-gateway verdicts and replica promotion
	// then wait on chord stabilization alone).
	GossipEvery time.Duration
	// ReplicaSyncEvery is the replication anti-entropy cadence: probe
	// mirrors, promote owned replicas, GC unclaimed ones (default 10s;
	// active only when Replicas > 1).
	ReplicaSyncEvery time.Duration
}

func (o *NodeOptions) fill() {
	if o.StabilizeEvery <= 0 {
		o.StabilizeEvery = 2 * time.Second
	}
	if o.WindowInterval <= 0 {
		o.WindowInterval = core.TInterval
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 10 * time.Second
	}
	if o.RPCAttempts <= 0 {
		o.RPCAttempts = 3
	}
	if o.RPCAttemptTimeout <= 0 {
		o.RPCAttemptTimeout = 2 * time.Second
	}
	if o.RPCBudget <= 0 {
		o.RPCBudget = 8 * time.Second
	}
	if o.RPCBackoff <= 0 {
		o.RPCBackoff = 50 * time.Millisecond
	}
	if o.BreakerThreshold == 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 3 * time.Second
	}
	if o.GossipEvery == 0 {
		o.GossipEvery = time.Second
	}
	if o.ReplicaSyncEvery <= 0 {
		o.ReplicaSyncEvery = 10 * time.Second
	}
}

// nodeEpoch anchors live timestamps: observation times are durations
// since the Unix epoch, identical on every node.
var nodeEpoch = time.Unix(0, 0)

// StartNode binds a PeerTrack node on listen ("host:port"; a port of 0
// or an empty string binds an ephemeral loopback port — read the final
// address from Addr). The node starts as a single-node network; call
// Join to enter an existing one.
func StartNode(listen string, opts NodeOptions) (*Node, error) {
	opts.fill()
	tr := transport.NewTCP()
	tr.DialTimeout = opts.DialTimeout
	tr.CallTimeout = opts.CallTimeout
	if opts.NetworkSecret != "" {
		tr.Secret = []byte(opts.NetworkSecret)
	}
	var peer *core.Peer
	handler := func(from transport.Addr, req any) (any, error) {
		if peer == nil {
			return nil, fmt.Errorf("peertrack: node starting")
		}
		return peer.Node().HandleRPC(from, req)
	}
	var addr transport.Addr
	var err error
	host, port, splitErr := net.SplitHostPort(listen)
	switch {
	case listen == "":
		addr, err = tr.RegisterAuto("127.0.0.1", handler)
	case splitErr == nil && port == "0":
		addr, err = tr.RegisterAuto(host, handler)
	default:
		// A malformed address is reported by the listen itself.
		addr = transport.Addr(listen)
		err = tr.Register(addr, handler)
	}
	if err != nil {
		tr.Close()
		return nil, err
	}

	clock := func() time.Duration { return time.Since(nodeEpoch) }
	tel := telemetry.New(clock)
	tr.SetTelemetry(tel)

	// All outbound P2P traffic goes through the resilience wrapper:
	// chord maintenance, PeerTrack protocol calls, and gossip probes
	// share its retry/breaker policy, and — being the TCP transport's
	// sole caller — its counters decompose exactly against the
	// transport's (invariants.CheckResilience).
	var netw transport.Network = tr
	var res *transport.Resilient
	if !opts.NoResilience {
		res = transport.NewResilient(tr, clock, time.Sleep, transport.ResilientConfig{
			MaxAttempts:      opts.RPCAttempts,
			AttemptTimeout:   opts.RPCAttemptTimeout,
			CallBudget:       opts.RPCBudget,
			BackoffBase:      opts.RPCBackoff,
			BackoffMax:       time.Second,
			BreakerThreshold: opts.BreakerThreshold,
			BreakerCooldown:  opts.BreakerCooldown,
			Seed:             gossip.SeedFor(1, addr),
		})
		res.SetTelemetry(tel)
		netw = res
	}

	var agent *gossip.Config
	if opts.GossipEvery > 0 {
		agent = &gossip.Config{Seed: 2}
	}
	// A pinned size is the size from the start: a node that never ran at
	// L_min has no Lp history to probe (core.PrefixManager.LpRange).
	pm := core.NewPrefixManager(core.Scheme2, core.LMin, opts.NetworkSize)
	peer, err = core.NewPeer(netw, addr, true, chord.Config{}, pm, core.Config{
		Mode:              opts.Mode,
		NMax:              opts.WindowMaxObjects,
		ReplicationFactor: opts.Replicas,
	}, clock, tel, agent)
	if err != nil {
		tr.Close()
		return nil, err
	}

	n := &Node{tr: tr, res: res, peer: peer, tel: tel, stopCh: make(chan struct{}), ringWake: make(chan struct{}, 1)}
	peer.Node().OnRingChange(func() {
		select {
		case n.ringWake <- struct{}{}:
		default:
		}
	})
	n.wg.Add(1)
	go n.maintain(opts)
	return n, nil
}

// Addr returns the node's dialable address — its identity in the
// network and the location name on traces.
func (n *Node) Addr() string { return string(n.peer.Addr()) }

// Telemetry returns the node's telemetry registry — transport, overlay
// and indexing counters, latency histograms, and recent query spans.
// Never nil for a started node.
func (n *Node) Telemetry() *telemetry.Registry { return n.tel }

// Join enters the network that bootstrap belongs to. The first stabilize
// round is part of it, error included; the next follow within milliseconds.
func (n *Node) Join(bootstrap string) error {
	return n.peer.Join(chord.NodeRef{
		ID:   ids.Hash([]byte(bootstrap)),
		Addr: transport.Addr(bootstrap),
	})
}

// maintain runs the maintenance table (core.Peer.Install) until Close. The
// schedule lives on the same discrete-event kernel the simulator uses;
// this goroutine is only its pacer: virtual time t maps to wall time
// anchor+t, and it sleeps until the earliest event is due, then steps.
// A ring-pointer change wakes it early, once, to start the table's
// catch-up rounds; nothing but this goroutine touches the kernel.
func (n *Node) maintain(opts NodeOptions) {
	defer n.wg.Done()
	k := sim.New(gossip.SeedFor(3, n.peer.Addr()))
	ringChanged := n.peer.Install(k, core.Cadences{
		Gossip:      opts.GossipEvery,
		Stabilize:   opts.StabilizeEvery,
		Window:      opts.WindowInterval,
		ReplicaSync: opts.ReplicaSyncEvery,
	}, sim.Forever)

	anchor := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C // Reset below always finds the timer drained, fired or stopped
	for {
		at, _ := k.NextAt()                     // never empty: the table's rows recur forever
		timer.Reset(time.Until(anchor.Add(at))) // fires at once when overdue
		select {
		case <-n.stopCh:
			return
		case <-n.ringWake:
			if !timer.Stop() {
				<-timer.C
			}
			k.RunUntil(time.Since(anchor)) // the catch-up gap counts from now
			ringChanged()
		case <-timer.C:
			k.Step()
		}
	}
}

// Observe ingests one capture event at this node, stamped now.
func (n *Node) Observe(object string) error {
	return n.ObserveAt(object, time.Now())
}

// ObserveAt ingests one capture event with an explicit timestamp.
func (n *Node) ObserveAt(object string, at time.Time) error {
	return n.peer.Observe(moods.Observation{
		Object: moods.ObjectID(object),
		At:     at.Sub(nodeEpoch),
	})
}

// Flush force-closes the current capture window (group mode).
func (n *Node) Flush() error { return n.peer.FlushWindow() }

// Locate answers "where was this object at time t?".
func (n *Node) Locate(object string, at time.Time) (string, QueryStats, error) {
	res, err := n.peer.Locate(moods.ObjectID(object), at.Sub(nodeEpoch))
	stats := QueryStats{Hops: res.Hops}
	if err != nil {
		return "", stats, err
	}
	return string(res.Node), stats, nil
}

// Trace answers "where has this object been?".
func (n *Node) Trace(object string) ([]Stop, QueryStats, error) {
	return traced(n.peer.FullTrace(moods.ObjectID(object)))
}

// TraceBetween answers TR(o, t1, t2): the trajectory within a window.
func (n *Node) TraceBetween(object string, t1, t2 time.Time) ([]Stop, QueryStats, error) {
	return traced(n.peer.Trace(moods.ObjectID(object), t1.Sub(nodeEpoch), t2.Sub(nodeEpoch)))
}

// ResolveTrace answers an object's full trajectory including movements
// made while packed inside parent containers.
func (n *Node) ResolveTrace(object string) ([]Stop, QueryStats, error) {
	return traced(n.peer.ResolveTrace(moods.ObjectID(object)))
}

// Pack records an aggregation event at this node: children packed into
// parent now.
func (n *Node) Pack(parent string, children []string) error {
	return n.peer.Pack(moods.ObjectID(parent), toObjectIDs(children), time.Since(nodeEpoch))
}

// Unpack records the matching disaggregation event.
func (n *Node) Unpack(parent string, children []string) error {
	return n.peer.Unpack(moods.ObjectID(parent), toObjectIDs(children), time.Since(nodeEpoch))
}

// PredictNext predicts where an object will move next based on the
// historical flows through its current location.
func (n *Node) PredictNext(object string) (Prediction, QueryStats, error) {
	res, err := n.peer.PredictNext(moods.ObjectID(object))
	stats := QueryStats{Hops: res.Hops}
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

// Inventory returns the objects currently present at this node.
func (n *Node) Inventory() []string {
	objs := n.peer.Inventory()
	out := make([]string, len(objs))
	for i, o := range objs {
		out[i] = string(o)
	}
	return out
}

// StorageStats returns local storage counters: visit records in the
// repository and gateway index records held.
func (n *Node) StorageStats() (visits, indexed int) {
	return n.peer.LocalVisits(), n.peer.IndexedEntries()
}

// Snapshot persists the node's durable state (repository, index,
// replicas, transition model) to w.
func (n *Node) Snapshot(w io.Writer) error { return n.peer.Snapshot(w) }

// Restore loads a snapshot produced by Snapshot. Call it before Join.
func (n *Node) Restore(r io.Reader) error { return n.peer.Restore(r) }

// Close flushes the open capture window, leaves the ring and stops
// serving.
func (n *Node) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	n.mu.Unlock()
	close(n.stopCh)
	n.wg.Wait()
	err := n.peer.Shutdown()
	n.tr.Close()
	if err != nil && err != chord.ErrLeft {
		return err
	}
	return nil
}

// Resilience reports the RPC wrapper's retry/breaker counters. ok is
// false when the node was started with NoResilience.
func (n *Node) Resilience() (snap transport.ResilienceSnapshot, ok bool) {
	if n.res == nil {
		return transport.ResilienceSnapshot{}, false
	}
	return n.res.Resilience(), true
}

// RingInfo reports the node's overlay neighbours and current prefix
// length, for diagnostics.
func (n *Node) RingInfo() (succ, pred string, lp int) {
	cn := n.peer.Node()
	return string(cn.Successor().Addr), string(cn.Predecessor().Addr), n.peer.Prefixes().Lp()
}
