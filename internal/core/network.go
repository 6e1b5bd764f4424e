package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"peertrack/internal/chord"
	"peertrack/internal/gossip"
	"peertrack/internal/moods"
	"peertrack/internal/sim"
	"peertrack/internal/telemetry"
	"peertrack/internal/transport"
)

// Network is a whole simulated traceable network: a Chord ring of
// peers over the instrumented in-memory transport, driven by a
// discrete-event kernel, with a ground-truth oracle recording every
// observation for verification. It is the harness every experiment and
// integration test runs on.
type Network struct {
	Kernel    *sim.Kernel
	Transport *transport.Memory
	PM        *PrefixManager
	Oracle    *moods.HistoryStore
	// HopLatency converts hop counts to query time, 5 ms by default
	// ("we added 5ms (typical network latency of T1) as the network
	// latency for each network query").
	HopLatency time.Duration
	// Telemetry is the network-wide instrumentation registry, on the
	// kernel's virtual clock and wired through transport, overlay, and
	// every peer. Its snapshots are deterministic for a given seed.
	Telemetry *telemetry.Registry

	peers  []*Peer
	byName map[moods.NodeName]*Peer
	cfg    NetworkConfig

	// gossipOn records that EnableGossip ran, so peers added by Grow
	// get agents too; gossipCfg is the template their configs derive
	// from (per-peer seeds are re-derived from the network seed).
	gossipOn  bool
	gossipCfg gossip.Config
}

// NetworkConfig configures BuildNetwork.
type NetworkConfig struct {
	// Nodes is the initial network size Nn.
	Nodes int
	// Seed drives all randomness (transport faults; workloads keep
	// their own seeds).
	Seed int64
	// Peer is the per-peer configuration (mode, window, delegation).
	Peer Config
	// Scheme is the prefix-length scheme (default Scheme2).
	Scheme Scheme
	// LMin is the bootstrap minimum prefix length (default 3).
	LMin int
	// TInterval is the periodic group-function invocation interval
	// ("invoked periodically at time intervals of Tinterval"); used by
	// StartWindows. Default 1s.
	TInterval time.Duration
	// HopLatency overrides the 5 ms default.
	HopLatency time.Duration
	// NoOracle disables ground-truth recording. The oracle keeps a copy
	// of every observation for verification; at Scale.XL (millions of
	// objects) that copy dominates memory, and throughput measurements
	// do not verify traces, so they turn it off.
	NoOracle bool
}

func (c *NetworkConfig) fill() {
	if c.Nodes <= 0 {
		c.Nodes = 8
	}
	if c.Scheme < Scheme1 || c.Scheme > Scheme3 {
		c.Scheme = Scheme2
	}
	if c.LMin <= 0 {
		c.LMin = 3
	}
	if c.TInterval <= 0 {
		c.TInterval = time.Second
	}
	if c.HopLatency <= 0 {
		c.HopLatency = 5 * time.Millisecond
	}
}

// NodeNameFor returns the canonical peer name for index i.
func NodeNameFor(i int) moods.NodeName {
	return moods.NodeName(fmt.Sprintf("org-%04d", i))
}

// BuildNetwork constructs a converged network of cfg.Nodes peers. Ring
// construction is static (exact routing state) so that experiment
// message counts reflect only the traceability protocol; the transport
// stats start at zero.
func BuildNetwork(cfg NetworkConfig) (*Network, error) {
	cfg.fill()
	kernel := sim.New(cfg.Seed)
	mem := transport.NewMemory(cfg.Seed + 1)
	tel := telemetry.New(kernel.Now)
	mem.SetTelemetry(tel)
	nw := &Network{
		Kernel:     kernel,
		Transport:  mem,
		PM:         NewPrefixManager(cfg.Scheme, cfg.LMin, float64(cfg.Nodes)),
		Oracle:     moods.NewHistoryStore(),
		HopLatency: cfg.HopLatency,
		Telemetry:  tel,
		byName:     make(map[moods.NodeName]*Peer, cfg.Nodes),
		cfg:        cfg,
	}
	for i := 0; i < cfg.Nodes; i++ {
		if err := nw.addPeer(transport.Addr(NodeNameFor(i))); err != nil {
			return nil, err
		}
	}
	nw.wireStatic(nw.peers)
	sort.Slice(nw.peers, func(i, j int) bool { return nw.peers[i].node.ID().Less(nw.peers[j].node.ID()) })
	return nw, nil
}

// addPeer constructs a Chord node at addr, puts a peer on it and
// registers the peer. The node's routing state is empty until wireStatic
// runs over the new membership.
func (nw *Network) addPeer(addr transport.Addr) error {
	n, err := chord.New(nw.Transport, addr, chord.Config{})
	if err != nil {
		return err
	}
	n.SetTelemetry(nw.Telemetry)
	p := NewPeer(n, nw.Transport, nw.PM, nw.cfg.Peer, nw.Kernel.Now)
	p.SetTelemetry(nw.Telemetry)
	nw.peers = append(nw.peers, p)
	nw.byName[p.Name()] = p
	return nil
}

// wireStatic sets exact converged ring state over the given membership.
func (nw *Network) wireStatic(peers []*Peer) {
	nodes := make([]*chord.Node, len(peers))
	for i, p := range peers {
		nodes[i] = p.node.(*chord.Node)
	}
	chord.WireStaticRing(nodes)
}

// Peers returns the peers in ring order.
func (nw *Network) Peers() []*Peer { return nw.peers }

// Size returns the current number of peers.
func (nw *Network) Size() int { return len(nw.peers) }

// PeerByName resolves a peer by its node name.
func (nw *Network) PeerByName(name moods.NodeName) (*Peer, bool) {
	p, ok := nw.byName[name]
	return p, ok
}

// ScheduleObservation schedules a capture event at its node and time,
// and records it in the oracle.
func (nw *Network) ScheduleObservation(obs moods.Observation) error {
	p, ok := nw.byName[obs.Node]
	if !ok {
		return fmt.Errorf("core: unknown node %q", obs.Node)
	}
	if !nw.cfg.NoOracle {
		nw.Oracle.Record(obs)
	}
	nw.Kernel.At(obs.At, func() {
		p.Observe(obs) // indexing errors surface via stats failures
	})
	return nil
}

// ScheduleAll schedules a batch of observations through the kernel's
// batch lane: one lane instead of one heap push per observation, which
// is what keeps workload injection linear at XL scale. The lane runs in
// capture-time order with ties in slice order, so execution order and
// the oracle are identical to per-observation ScheduleObservation calls.
//
// A slice already in that order — workload.Generate's is — is scheduled
// as it stands and retained until its last observation has run: the
// caller must not modify it before then. Only unsorted input is copied
// and the copy sorted (at XL a copy is a second 150 MB).
func (nw *Network) ScheduleAll(obss []moods.Observation) error {
	if len(obss) == 0 {
		return nil
	}
	times := make([]sim.Time, len(obss))
	sorted := true
	for i, o := range obss {
		if _, ok := nw.byName[o.Node]; !ok {
			return fmt.Errorf("core: unknown node %q", o.Node)
		}
		times[i] = o.At
		sorted = sorted && (i == 0 || times[i-1] <= o.At)
	}
	if !sorted {
		obss = slices.Clone(obss)
		moods.SortByTime(obss)
		return nw.ScheduleAll(obss)
	}
	if !nw.cfg.NoOracle {
		// An object's observations keep their relative order under the
		// sort, so the oracle reads the same as in the caller's order.
		nw.Oracle.RecordAll(obss)
	}
	// The peer is looked up when the observation fires — one map hit in
	// place of a pointer per observation held beside the slice — so a node
	// that has left the network by then (Shrink) captures nothing.
	nw.Kernel.Batch(times, func(i int) {
		if p := nw.byName[obss[i].Node]; p != nil {
			p.Observe(obss[i])
		}
	})
	return nil
}

// StartWindows schedules the periodic group-function invocation on
// every peer at TInterval boundaries until the given horizon.
func (nw *Network) StartWindows(until time.Duration) {
	nw.Kernel.Every(nw.cfg.TInterval, until, nw.FlushAll)
}

// Run drains the event queue and force-flushes any open windows.
func (nw *Network) Run() {
	nw.Kernel.Run()
	nw.FlushAll()
}

// FlushAll force-closes every peer's open window.
func (nw *Network) FlushAll() {
	for _, p := range nw.peers {
		p.FlushWindow()
	}
}

// Stats returns the transport counters.
func (nw *Network) Stats() *transport.Stats { return nw.Transport.Stats() }

// QueryTime converts a hop count into the paper's query-time metric.
func (nw *Network) QueryTime(hops int) time.Duration {
	return time.Duration(hops) * nw.HopLatency
}

// IndexLoads returns per-peer gateway index record counts — the load
// distribution of Fig. 8a.
func (nw *Network) IndexLoads() []float64 {
	out := make([]float64, len(nw.peers))
	for i, p := range nw.peers {
		out[i] = float64(p.IndexedEntries())
	}
	return out
}

// Grow adds k peers to the network: the ring is re-wired to its new
// converged state, the shared prefix length is recomputed, gateway
// caches are invalidated, and the splitting/re-homing process runs to
// a fixed point. Returns (oldLp, newLp).
func (nw *Network) Grow(k int) (int, int, error) {
	// Allocate the lowest name indices not currently in use. After a
	// Shrink the live indices need not be contiguous (peers are kept in
	// ring order, so departures can leave holes anywhere), and reusing a
	// live name would alias two peers onto one transport address and one
	// chord ID.
	fresh := make([]transport.Addr, 0, k)
	for i := 0; len(fresh) < k; i++ {
		if name := NodeNameFor(i); nw.byName[name] == nil {
			fresh = append(fresh, transport.Addr(name))
		}
	}
	start := len(nw.peers)
	for _, addr := range fresh {
		if err := nw.addPeer(addr); err != nil {
			return 0, 0, err
		}
	}
	nw.wireStatic(nw.peers)
	if nw.gossipOn {
		// Attach after wiring so the fresh peers' views seed from real
		// ring neighbours; existing views learn the newcomers by mixing.
		for _, p := range nw.peers[start:] {
			nw.attachGossipPeer(p)
		}
	}
	oldLp, newLp := nw.PM.SetNetworkSize(float64(len(nw.peers)))
	nw.Reconcile()
	return oldLp, newLp, nil
}

// Shrink removes the last k peers from the network as voluntary
// departures: each leaver migrates its gateway index to the remaining
// nodes, the ring is re-wired, the shared prefix length is recomputed
// (triggering merges if Lp drops), and reconciliation runs to a fixed
// point. The leavers' local repositories (their organisations' own
// observation data) leave with them, as the paper's sovereignty model
// dictates. Returns (oldLp, newLp).
func (nw *Network) Shrink(k int) (int, int, error) {
	if k <= 0 || k >= len(nw.peers) {
		return 0, 0, fmt.Errorf("core: cannot shrink %d of %d peers", k, len(nw.peers))
	}
	leavers := nw.peers[len(nw.peers)-k:]
	remaining := nw.peers[:len(nw.peers)-k]

	// Re-wire the ring over the remaining membership first, so the
	// leavers' migrations resolve to the new owners.
	nw.wireStatic(remaining)
	oldLp, newLp := nw.PM.SetNetworkSize(float64(len(remaining)))

	// Leavers push their index records out. Their own routing state
	// still points into the old ring, but their lookups route through
	// survivors, so reconciliation lands the records on the new owners.
	for _, l := range leavers {
		if g := l.Gossip(); g != nil {
			g.Stop()
		}
		l.InvalidateGatewayCache()
		for pass := 0; pass < 8 && l.ReconcileStep() > 0; pass++ {
		}
		// A leaver's stale routing can fail to place some records (its
		// lookup may terminate at another leaver); hand any remainder to
		// a survivor so departure never loses index records — the
		// reconciliation below re-homes them correctly.
		l.evacuate(remaining[0].Addr())
		nw.Transport.Unregister(l.Addr())
		delete(nw.byName, l.Name())
	}
	nw.peers = remaining
	nw.Reconcile()
	return oldLp, newLp, nil
}

// Reconcile invalidates gateway caches and runs ReconcileStep across
// all peers until no bucket moves, completing the splitting–merging
// process after membership or Lp changes.
func (nw *Network) Reconcile() {
	defer nw.SyncReplicas() // re-mirror re-homed buckets, promote, GC orphans
	for _, p := range nw.peers {
		p.InvalidateGatewayCache()
	}
	for pass := 0; pass < 4*ids160; pass++ {
		moved := 0
		for _, p := range nw.peers {
			moved += p.ReconcileStep()
		}
		if moved == 0 {
			// Every bucket sits at the current level on its correct
			// gateway; stale levels can no longer hold records.
			nw.PM.ResetLpHistory()
			return
		}
	}
}

// ids160 bounds reconcile passes; prefix lengths are at most 160 so
// far fewer passes are ever needed.
const ids160 = 160
