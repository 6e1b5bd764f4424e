package core

import (
	"fmt"
	"slices"
	"sort"
	"time"
	"unsafe"

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

	// catchUpEvery and catchUpUntil are StartMaintenance's stabilize
	// cadence and horizon, zero until it runs: Grow gives each joiner a
	// catch-up chain on them before it joins.
	catchUpEvery time.Duration
	catchUpUntil sim.Time
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
	// HopLatency overrides the 5 ms default.
	HopLatency time.Duration
	// NoOracle disables ground-truth recording. The oracle keeps a copy
	// of every observation for verification; at Scale.XL (millions of
	// objects) that copy dominates memory, and throughput measurements
	// do not verify traces, so they turn it off.
	NoOracle bool
	// Gossip, when set, gives every peer, and every peer Grow adds, a
	// membership agent; its Seed is replaced by the network's.
	Gossip *gossip.Config
}

func (c *NetworkConfig) fill() {
	if c.Nodes <= 0 {
		c.Nodes = 8
	}
	if c.Scheme < Scheme1 || c.Scheme > Scheme3 {
		c.Scheme = Scheme2
	}
	if c.HopLatency <= 0 {
		c.HopLatency = 5 * time.Millisecond
	}
	if c.Gossip != nil {
		g := *c.Gossip
		g.Seed = c.Seed
		c.Gossip = &g
	}
}

// TInterval is T_interval, the cadence at which StartWindows invokes
// the group function on every peer ("invoked periodically at time
// intervals of Tinterval", Section IV). One second of virtual time is
// far below the workloads' one-minute hop gap, so a window closes long
// before its objects reach their next stop; a live node flushes at the
// same default (peertrack.NodeOptions.WindowInterval).
const TInterval = time.Second

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
		PM:         NewPrefixManager(cfg.Scheme, LMin, float64(cfg.Nodes)),
		Oracle:     moods.NewHistoryStore(),
		HopLatency: cfg.HopLatency,
		Telemetry:  tel,
		byName:     make(map[moods.NodeName]*Peer, cfg.Nodes),
		cfg:        cfg,
	}
	for i := 0; i < cfg.Nodes; i++ {
		if _, err := nw.member(NodeNameFor(i)); err != nil {
			return nil, err
		}
	}
	chord.WireStaticRing(nw.ring())
	nw.sortPeers()
	for _, p := range nw.peers {
		if p.gossip != nil {
			p.gossip.SeedView(p.chord.Neighbors())
		}
	}
	return nw, nil
}

// member builds the peer named name (NewPeer) and makes it a member. Its
// node is a ring of one until the ring is wired or it joins.
func (nw *Network) member(name moods.NodeName) (*Peer, error) {
	p, err := NewPeer(nw.Transport, transport.Addr(name), false, chord.Config{}, nw.PM, nw.cfg.Peer, nw.Kernel.Now, nw.Telemetry, nw.cfg.Gossip)
	if err != nil {
		return nil, err
	}
	nw.peers = append(nw.peers, p)
	nw.byName[name] = p
	return p, nil
}

// ring is the peers' Chord nodes, in the peers' order.
func (nw *Network) ring() []*chord.Node {
	nodes := make([]*chord.Node, len(nw.peers))
	for i, p := range nw.peers {
		nodes[i] = p.chord
	}
	return nodes
}

// sortPeers restores ring order after a membership change.
func (nw *Network) sortPeers() {
	sort.Slice(nw.peers, func(i, j int) bool { return nw.peers[i].node.ID().Less(nw.peers[j].node.ID()) })
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
	// byName is asked once per node string, not once per observation: a
	// workload's observations share their node's string, and seen keeps
	// each name found at a slot picked by the address of its bytes, so
	// names allocated one after another take slots one after another.
	var seen [1024]moods.NodeName
	for i := range obss {
		o := &obss[i]
		at := &seen[uintptr(unsafe.Pointer(unsafe.StringData(string(o.Node))))/8%uintptr(len(seen))]
		if *at != o.Node || o.Node == "" {
			if _, ok := nw.byName[o.Node]; !ok {
				return fmt.Errorf("core: unknown node %q", o.Node)
			}
			*at = o.Node
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
	nw.Kernel.Every(TInterval, until, nw.FlushAll)
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

// Grow adds k peers, each joining through a member as a live node joins
// (Peer.Join), and settles. Returns (oldLp, newLp).
func (nw *Network) Grow(k int) (int, int, error) {
	// Take the lowest name indices not in use. After a Shrink the live
	// indices need not be contiguous (peers are kept in ring order, so
	// departures can leave holes anywhere), and reusing a live name would
	// alias two peers onto one transport address and one chord ID.
	bootstrap := nw.peers[0].chord.Self()
	for i := 0; k > 0; i++ {
		name := NodeNameFor(i)
		if nw.byName[name] != nil {
			continue
		}
		p, err := nw.member(name)
		if err != nil {
			return 0, 0, err
		}
		if nw.catchUpEvery > 0 {
			p.chord.OnRingChange(p.chain(nw.Kernel, nw.catchUpEvery, nw.catchUpUntil))
		}
		if err := p.Join(bootstrap); err != nil {
			return 0, 0, fmt.Errorf("core: grow: %s: %w", name, err)
		}
		k--
	}
	nw.sortPeers()
	return nw.settle()
}

// Shrink removes the last k peers in ring order as voluntary departures,
// each leaving as a live node leaves (Peer.Shutdown), in reverse
// ring order so that every successor handed buckets is a survivor, and
// settles. The leavers' local repositories (their organisations' own
// observation data) leave with them, as the paper's sovereignty model
// dictates. Returns (oldLp, newLp).
func (nw *Network) Shrink(k int) (int, int, error) {
	if k <= 0 || k >= len(nw.peers) {
		return 0, 0, fmt.Errorf("core: cannot shrink %d of %d peers", k, len(nw.peers))
	}
	stay := len(nw.peers) - k
	for i := len(nw.peers) - 1; i >= stay; i-- {
		l := nw.peers[i]
		if err := l.Shutdown(); err != nil {
			return 0, 0, fmt.Errorf("core: shrink: %s: %w", l.Addr(), err)
		}
		delete(nw.byName, l.Name())
	}
	nw.peers = nw.peers[:stay]
	return nw.settle()
}

// settleBudget bounds each phase of settle: a join burst closes in a few
// overlay rounds, a departed node leaves the successor lists one ring
// position a round, and Lp moved by d levels takes d + 1 refresh passes.
const settleBudget = 64

// settle completes a membership change: it feeds the shared prefix
// manager the new size and returns Lp before and after. Then it runs the
// maintenance table's own rows by hand on every peer in ring order:
// overlay rounds until the ring is converged and a round changes no
// successor list (where lookups walk, no departed node may remain), the
// refresh row until a pass moves no bucket, one anti-entropy round.
func (nw *Network) settle() (oldLp, newLp int, err error) {
	oldLp, newLp = nw.PM.SetNetworkSize(float64(len(nw.peers)))
	ring := nw.ring()
	lists := func() (out [][]chord.NodeRef) {
		for _, n := range ring {
			out = append(out, n.Successors())
		}
		return out
	}
	for round, quiet := 0, false; !quiet; round++ {
		if round == settleBudget {
			return oldLp, newLp, fmt.Errorf("core: ring not converged after %d overlay rounds", settleBudget)
		}
		before := lists()
		for _, p := range nw.peers {
			p.OverlayRound()
		}
		quiet = chord.Converged(ring) && slices.EqualFunc(before, lists(), slices.Equal)
	}
	for pass := 0; ; pass++ {
		if pass == settleBudget {
			return oldLp, newLp, fmt.Errorf("core: buckets still moving after %d refresh passes", settleBudget)
		}
		moved := 0
		for _, p := range nw.peers {
			moved += p.refresh()
		}
		if moved == 0 {
			break
		}
	}
	nw.SyncReplicas()
	return oldLp, newLp, nil
}
