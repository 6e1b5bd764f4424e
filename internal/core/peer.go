// Package core implements the paper's contribution: P2P object
// tracking over a Chord overlay.
//
// Each participating organisation runs a Peer. Observations captured by
// the peer's receptors are stored in its local repository (the IOP
// store); the object's latest state is indexed at a deterministic
// gateway node found by DHT lookup; and on every movement the gateway
// stitches the distributed doubly-linked IOP list by messaging the
// source and destination nodes (Section III). For large volumes, peers
// batch arrivals into adaptive windows and index whole prefix groups
// with one message (Section IV), using Data Triangles with α-FIFO
// delegation and ascent/descent refresh to stay correct and balanced as
// the prefix length Lp tracks network growth.
package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"peertrack/internal/chord"
	"peertrack/internal/gossip"
	"peertrack/internal/ids"
	"peertrack/internal/moods"
	"peertrack/internal/overlay"
	"peertrack/internal/replication"
	"peertrack/internal/telemetry"
	"peertrack/internal/transport"
)

// Mode selects the indexing algorithm.
type Mode int

const (
	// GroupIndexing batches arrivals by hashed-id prefix (Section IV):
	// one indexing message per (group, window). It is the zero value:
	// the paper's enhanced algorithm is the default everywhere.
	GroupIndexing Mode = iota
	// IndividualIndexing indexes every object arrival separately
	// (Section III): 3 messages per arrival plus a DHT lookup.
	IndividualIndexing
)

// Config tunes a peer.
type Config struct {
	// Mode selects individual or group indexing. Default group.
	Mode Mode
	// NMax bounds the number of observations per capture window
	// (group mode). Default 1024.
	NMax int
	// DelegationThreshold is the bucket size beyond which a gateway
	// delegates records to its Data Triangle children. Default 256.
	DelegationThreshold int
	// DelegationAlpha is α: the fraction of FIFO-earliest records
	// delegated when the threshold trips, 0 < α <= 1. Default 0.5.
	DelegationAlpha float64
	// NoGatewayCache turns off the cache of prefix→gateway address
	// resolutions ("the address of the parent and children can be
	// cached to save the cost of DHT lookup"). The cache is on unless
	// an ablation sets this.
	NoGatewayCache bool
	// ReplicationFactor is the total number of copies of every gateway
	// bucket and IOP repository, primary included: each peer mirrors its
	// state to its first factor−1 ring successors, with deterministic
	// failover (replication.go). Default 1 (off), matching the paper's
	// setup.
	ReplicationFactor int
}

func (c *Config) fill() {
	if c.ReplicationFactor <= 0 {
		c.ReplicationFactor = 1
	}
	if c.NMax <= 0 {
		c.NMax = 1024
	}
	if c.DelegationThreshold <= 0 {
		c.DelegationThreshold = 256
	}
	if c.DelegationAlpha <= 0 || c.DelegationAlpha > 1 {
		c.DelegationAlpha = 0.5
	}
}

// MaxDescent bounds how many levels below Lp the lookup and refresh
// walk down the Data Triangle. Split/merge keeps the real depth at 1–2,
// so 3 leaves a level of slack without letting a miss wander deeper.
const MaxDescent = 3

// gatewayCacheSize bounds the gateway-resolution cache (LRU): a peer
// never holds more than this many cached prefix→address entries, however
// many distinct prefixes it contacts over its lifetime. 8 192 holds
// every group of Lp 13, the paper's 512 nodes under Scheme 2.
const gatewayCacheSize = 8192

// Peer is one traceable-network participant: a Chord node plus the
// local repository, gateway storage, and the indexing/query protocols,
// and the maintenance table's rows over them (maintenance.go).
type Peer struct {
	// chord is the peer's overlay node; node is the same node as the
	// indexing and query paths route through it (a test may wrap it).
	chord *chord.Node
	node  overlay.Node
	net   transport.Network
	cfg   Config
	pm    *PrefixManager
	clock func() time.Duration

	// names interns the node names that repo, gw, replica and gwCache
	// hold (names.go).
	names   nameTable
	repo    *iopStore
	gw      *gatewayStore
	replica *gatewayStore
	trans   *transitionStats
	contain *containStore

	// repl is the replication bookkeeping engine: versions of the units
	// this node owns and the mirror copies it holds for other owners
	// (which of those owners are dead is the gossip agent's to say).
	// repoReplica stores mirrored remote repositories, keyed by owner;
	// the repository's dirty set lives in repo itself.
	repl        *replication.Engine
	repoReplica *repoReplicaStore

	mu     sync.Mutex
	window []moods.Observation
	spare  []moods.Observation // the last flushed window's array, cleared, for the next window

	// gwCache is the bounded LRU of prefix→gateway resolutions; the
	// embedded lateTable counts deferred late stitches (lateRetry,
	// lateForget). Each locks itself (lru.go).
	gwCache refCache
	lateTable

	// tel and gossip are set by NewPeer and read without the lock. The
	// agent, nil when there is none, serves membership exchanges ahead
	// of the traceability protocol and feeds dead-gateway verdicts into
	// the resolution cache (gossipwire.go).
	tel    peerTelemetry
	gossip *gossip.Agent
}

// NewPeer assembles one participant, the only place one is assembled:
// the Chord node at addr, the peer on it and, when agent is non-nil, its
// membership agent with the dead-verdict hook, each layer's telemetry
// wired to tel once. What differs between the worlds are the arguments.
// A live node (peertrack.StartNode) passes TCP behind Resilient, an
// address it bound before the node existed (bound: its handler forwards
// to Node().HandleRPC), its own PrefixManager and a closure over its
// epoch; a simulated network passes transport.Memory, the manager every
// peer shares and sim.Kernel.Now; every manager of one network has the
// same scheme and L_min. The agent's Seed is a base that NewPeer
// mixes with addr (gossip.SeedFor), so the agents of one network are
// decorrelated yet determined. The node starts as a ring of one: Join
// enters a ring, or the caller wires a static one and then seeds each
// agent's view from its ring neighbours.
//
// The clock is mandatory: core is a deterministic package, so it never
// reads the wall clock itself (an arrival stamped from the wall clock
// fails TestGroupArriveSameOverMemoryAndTCP).
func NewPeer(net transport.Network, addr transport.Addr, bound bool, ring chord.Config, pm *PrefixManager, cfg Config, clock func() time.Duration, tel *telemetry.Registry, agent *gossip.Config) (*Peer, error) {
	cfg.fill()
	if clock == nil {
		panic("core: NewPeer requires a clock (sim.Kernel.Now in simulation, a wall-clock closure for live nodes)")
	}
	var node *chord.Node
	if bound {
		node = chord.NewPrebound(net, addr, ids.Hash([]byte(addr)), ring)
	} else {
		var err error
		if node, err = chord.New(net, addr, ring); err != nil {
			return nil, err
		}
	}
	node.SetTelemetry(tel)
	// Store internals (bucket maps, visit maps, caches) are allocated
	// lazily: at XL network sizes most peers never act as gateway for
	// most stores, and seven eager map allocations per peer add up.
	p := &Peer{
		chord:       node,
		node:        node,
		net:         net,
		cfg:         cfg,
		pm:          pm,
		clock:       clock,
		trans:       newTransitionStats(),
		contain:     newContainStore(),
		repl:        replication.NewEngine(),
		repoReplica: &repoReplicaStore{},
		gwCache:     refCache{cap: gatewayCacheSize},
	}
	p.repo = newIOPStore(&p.names, cfg.ReplicationFactor > 1)
	p.gw, p.replica = newGatewayStore(&p.names, cfg.ReplicationFactor > 1), newGatewayStore(&p.names, false)
	p.setTelemetry(tel)
	if agent != nil {
		c := *agent
		c.Seed = gossip.SeedFor(c.Seed, addr)
		p.gossip = gossip.New(net, node.Self(), c)
		p.gossip.SetTelemetry(tel)
		p.gossip.SetOnDead(p.onGossipDead)
	}
	node.SetAppHandler(p.handleRPC)
	return p, nil
}

// Node returns the peer's Chord node.
func (p *Peer) Node() *chord.Node { return p.chord }

// Gossip returns the peer's membership agent, nil when it has none.
func (p *Peer) Gossip() *gossip.Agent { return p.gossip }

// Name returns this peer's node name in the discrete space N.
func (p *Peer) Name() moods.NodeName { return moods.NodeName(p.node.Addr()) }

// Addr returns the peer's transport address.
func (p *Peer) Addr() transport.Addr { return p.node.Addr() }

// Prefixes returns the prefix manager this peer routes by: one shared
// instance in the simulator, its own on a live node.
func (p *Peer) Prefixes() *PrefixManager { return p.pm }

// IndexedEntries returns the number of gateway index records this node
// holds — the per-node load of Fig. 8a.
func (p *Peer) IndexedEntries() int { return p.gw.totalEntries() }

// LocalVisits returns the number of visit records in the local
// repository.
func (p *Peer) LocalVisits() int { return p.repo.len() }

// Observe ingests one cleansed capture event at this node. In
// individual mode it indexes immediately; in group mode it buffers into
// the current window, flushing when NMax is reached. The caller (or a
// timer) must call FlushWindow to close time-bounded windows.
func (p *Peer) Observe(obs moods.Observation) error {
	obs.Node = p.Name()
	p.repo.record(obs.Object, obs.At)
	if p.cfg.Mode == IndividualIndexing {
		// No window to batch into: mirror the repository change with the
		// same per-arrival granularity the indexing itself has.
		p.flushRepoMirror()
		return p.indexIndividually(obs)
	}
	p.mu.Lock()
	p.window = append(p.window, obs)
	full := len(p.window) >= p.cfg.NMax
	p.mu.Unlock()
	p.tel.buffered.Add(1)
	if full {
		return p.FlushWindow()
	}
	return nil
}

// Buffered returns the number of observations in the open window.
func (p *Peer) Buffered() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.window)
}

// FlushWindow closes the current capture window: observations are
// grouped by the Lp-bit prefix of their hashed ids and one indexing
// message is sent to each group's gateway.
func (p *Peer) FlushWindow() error {
	p.mu.Lock()
	batch := p.window
	p.window, p.spare = p.spare, nil
	p.mu.Unlock()
	// Mirror the repository changes of this window (and any stitch
	// updates that arrived since the last flush) before the early
	// return: captures recorded into a window that closes empty must
	// still reach the mirrors.
	p.flushRepoMirror()
	if len(batch) == 0 {
		p.recycleWindow(batch)
		return nil
	}
	p.tel.flushes.Inc()
	p.tel.buffered.Add(-int64(len(batch)))

	// Group generation: two objects share a group iff their hashed ids
	// share the first Lp bits. Ordering (packed prefix key, window
	// position) pairs puts the groups in ascending key order — fault
	// injection draws randomness per call, so the order must be fixed, and
	// numeric key order equals the old lexicographic prefix-string order —
	// and each group's events in window order. The events are laid out
	// once in that order; a group is a capped sub-slice of them.
	lp := p.pm.Lp()
	order := make([]keyedEvent, len(batch))
	for i, obs := range batch {
		id := obs.Object.Hash()
		order[i] = keyedEvent{key: ids.KeyOf(id, lp), id: id, pos: int32(i)}
	}
	slices.SortFunc(order, func(a, b keyedEvent) int {
		if a.key != b.key {
			return cmp.Compare(a.key, b.key)
		}
		return cmp.Compare(a.pos, b.pos)
	})
	all := make([]ObjEvent, len(order))
	for i, o := range order {
		all[i] = ObjEvent{Object: batch[o.pos].Object, Arrived: batch[o.pos].At, id: o.id}
	}
	p.recycleWindow(batch)

	var firstErr error
	var failed []moods.Observation
	groups := 0
	for lo := 0; lo < len(all); {
		key := order[lo].key
		hi := lo + 1
		for hi < len(all) && order[hi].key == key {
			hi++
		}
		events := all[lo:hi:hi]
		lo = hi
		groups++
		gwAddr, err := p.resolveGateway(key)
		if err == nil {
			req := groupArriveReq{Key: key, Events: events, Node: p.Name(), At: p.clock()}
			var resp any
			resp, err = p.call(gwAddr, req)
			if err == nil {
				// Late events whose IOP stitch hit an unreachable chain
				// segment come back deferred: re-buffer them so the next
				// flush retries once the fault heals.
				if gr, ok := resp.(groupArriveResp); ok {
					for _, ev := range gr.Deferred {
						failed = append(failed, moods.Observation{
							Object: ev.Object, Node: p.Name(), At: ev.Arrived,
						})
					}
				}
			}
			if err != nil {
				err = fmt.Errorf("core: group index %q at %s: %w", key, gwAddr, err)
				// The resolution may be stale (churn); retry fresh next
				// time.
				p.gwCache.remove(key)
			}
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			// Re-buffer the group so the next flush retries it — an
			// unreachable gateway must not lose capture events.
			for _, ev := range events {
				failed = append(failed, moods.Observation{
					Object: ev.Object, Node: p.Name(), At: ev.Arrived,
				})
			}
		}
	}
	if len(failed) > 0 {
		p.mu.Lock()
		p.window = append(failed, p.window...)
		p.mu.Unlock()
		p.tel.rebuffered.Add(uint64(len(failed)))
		p.tel.buffered.Add(int64(len(failed)))
	}
	p.tel.flushGroups.Observe(int64(groups))
	return firstErr
}

// keyedEvent is one window observation's place in the flush order: its
// group's packed prefix key, its hashed id and its window position.
type keyedEvent struct {
	key ids.PrefixKey
	id  ids.ID
	pos int32
}

// recycleWindow keeps a flushed window's array, cleared, for the window
// after next: steady traffic reuses one array instead of growing a new
// one every window.
func (p *Peer) recycleWindow(batch []moods.Observation) {
	clear(batch)
	p.mu.Lock()
	p.spare = batch[:0]
	p.mu.Unlock()
}

// indexIndividually runs the Section III protocol for one arrival: DHT
// lookup of the object's own hashed id, then message M1 to the gateway
// (which emits M2/M3).
func (p *Peer) indexIndividually(obs moods.Observation) error {
	id := obs.Object.Hash()
	res, err := p.node.Lookup(id)
	if err != nil {
		return fmt.Errorf("core: locate gateway for %s: %w", obs.Object, err)
	}
	req := arriveReq{Event: ObjEvent{Object: obs.Object, Arrived: obs.At, id: id}, Node: p.Name()}
	if _, err := p.call(res.Node.Addr, req); err != nil {
		return fmt.Errorf("core: index %s at %s: %w", obs.Object, res.Node.Addr, err)
	}
	return nil
}

// resolveGateway finds the address of a prefix group's gateway node,
// using the cache when enabled.
func (p *Peer) resolveGateway(key ids.PrefixKey) (transport.Addr, error) {
	if !p.cfg.NoGatewayCache {
		if node, ok := p.gwCache.get(key); ok {
			return transport.Addr(p.names.name(node)), nil
		}
	}
	res, err := p.node.Lookup(p.pm.GatewayID(key))
	if err != nil {
		return "", fmt.Errorf("core: resolve gateway %q: %w", key, err)
	}
	if !p.cfg.NoGatewayCache {
		p.gwCache.put(key, p.names.ref(moods.NodeName(res.Node.Addr)))
	}
	return res.Node.Addr, nil
}

// InvalidateGatewayCache clears cached gateway resolutions; call after
// ring membership changes.
func (p *Peer) InvalidateGatewayCache() { p.gwCache.reset() }

// call sends an application RPC, short-circuiting self-addressed
// messages (a node never pays transport cost to talk to itself).
func (p *Peer) call(to transport.Addr, req any) (any, error) {
	if to == p.node.Addr() {
		return p.handleRPC(p.node.Addr(), req)
	}
	return p.net.Call(p.node.Addr(), to, req)
}

// handleRPC serves the traceability protocol.
func (p *Peer) handleRPC(from transport.Addr, req any) (any, error) {
	switch r := req.(type) {
	case arriveReq:
		p.gatewayArrive(r)
		return arriveResp{}, nil
	case groupArriveReq:
		return groupArriveResp{Deferred: p.gatewayGroupArrive(r)}, nil
	case iopSetToReq:
		for _, obj := range r.Objects {
			// Learn the outbound transition for prediction: dwell is
			// the time between the closed visit's arrival and the
			// departure now being recorded.
			if arrived, ok := p.repo.setTo(obj, r.To, r.At); ok {
				p.trans.record(r.To, r.At-arrived)
			}
		}
		p.flushRepoMirror()
		return iopSetToResp{}, nil
	case transModelReq:
		return p.trans.model(), nil
	case iopSetFromReq:
		for _, l := range r.Links {
			if l.From != "" {
				p.repo.setFrom(l.Object, l.From, l.At)
			}
		}
		p.flushRepoMirror()
		return iopSetFromResp{}, nil
	case fetchIndexReq:
		entries, delegated := p.gw.take(r.Key, r.Objects)
		p.mirrorIndex(r.Key, len(entries) > 0)
		return fetchIndexResp{Entries: entries, Delegated: delegated}, nil
	case queryIndexReq:
		entries, delegated := p.queryStores(r.Key, r.Objects, true)
		return queryIndexResp{Entries: entries, Delegated: delegated}, nil
	case delegateReq:
		if r.MetaVersion > 0 && p.mirrors() > 0 && r.Key != individualKey && !p.gw.has(r.Key) {
			// One-step replica-set handoff: the sender transferred the
			// bucket's version line along with its records, and this node
			// has no copy of its own to merge — adopt both. The existing
			// mirror copies are claimed by version probe in the next sync
			// round instead of being re-shipped.
			for _, e := range r.Entries {
				p.gw.put(r.Key, e)
			}
			u := replication.IndexUnit(r.Key)
			p.dropHeld(u)
			p.repl.AdoptOwned(u, replication.OwnedMeta{Version: r.MetaVersion, Synced: r.MetaSynced})
			p.tel.replHandoffs.Inc()
			return delegateResp{}, nil
		}
		for _, e := range r.Entries {
			p.gw.upsert(r.Key, p.merged(r.Key, e))
		}
		p.mirrorIndex(r.Key, len(r.Entries) > 0)
		return delegateResp{}, nil
	case iopGetReq:
		visits, found := p.repo.get(r.Object)
		return iopGetResp{Visits: visits, Found: found}, nil
	case replicatePutReq:
		return p.handleReplicatePut(r), nil
	case replicaCheckReq:
		return replicaCheckResp{Current: p.repl.CheckHeld(heldUnitOf(r.Key, r.Repo, r.Owner), r.Owner, r.Version)}, nil
	case replicaDropReq:
		p.dropHeld(heldUnitOf(r.Key, r.Repo, r.Owner))
		return replicaDropResp{}, nil
	case replicaQueryReq:
		// No promotion on this path (see queryStores).
		entries, delegated := p.queryStores(r.Key, r.Objects, false)
		return replicaQueryResp{Entries: entries, Delegated: delegated}, nil
	case repoMirrorReq:
		return p.handleRepoMirror(r), nil
	case repoQueryReq:
		visits, found := p.repoReplica.get(r.Owner, r.Object)
		return repoQueryResp{Visits: visits, Found: found}, nil
	case routedTraceReq:
		return p.handleRoutedTrace(from, r)
	default:
		if g := p.gossip; g != nil {
			if resp, handled, err := g.HandleRPC(from, req); handled {
				return resp, err
			}
		}
		if resp, handled := p.handleContainment(req); handled {
			return resp, nil
		}
		return nil, fmt.Errorf("core: unknown request %T", req)
	}
}

// gatewayArrive processes M1 for one object (individual indexing).
func (p *Peer) gatewayArrive(r arriveReq) {
	id := r.Event.hash()
	var fallback *IndexEntry
	if e, ok := p.lookupWithReplica(individualKey, id); ok {
		fallback = &e
	}
	prev, move := p.gw.advance(individualKey, IndexEntry{
		Object: r.Event.Object, ID: id, Latest: r.Node,
		Arrived: r.Event.Arrived, Indexed: p.clock(),
	}, fallback)
	if move == headLate {
		// The indexed state is newer than this event. Individual indexing
		// has no window to re-buffer into, so a deferred stitch is
		// best-effort (retried only if re-reported).
		p.stitchInsert(r.Event.Object, r.Node, prev, individualKey, r.Event.Arrived)
		return
	}
	p.mirrorIndex(individualKey, true)
	if move == headMoved {
		p.link(r.Event.Object, prev.Latest, r.Node, r.Event.Arrived)
	}
}

// link writes one hand-off of the IOP list: M2 tells node from that the
// object moved on to node to at time at, M3 tells to where it came from.
func (p *Peer) link(obj moods.ObjectID, from, to moods.NodeName, at time.Duration) {
	p.call(transport.Addr(from), iopSetToReq{Objects: []moods.ObjectID{obj}, To: to, At: at})
	p.call(transport.Addr(to), iopSetFromReq{Links: []IOPLink{{Object: obj, From: from, At: at}}})
}

// merged reconciles an incoming index record with whatever this
// gateway already holds for the object and returns the record to store.
// During ring convergence two nodes can transiently act as gateway for
// the same prefix, splitting an object's history; when reconciliation
// moves the buckets together the two heads must be merged — the newer
// arrival stays the head, the older becomes its predecessor, and the
// missing IOP links are stitched.
func (p *Peer) merged(key ids.PrefixKey, e IndexEntry) IndexEntry {
	cur, had := p.gw.lookup(key, e.ID)
	if !had {
		return e
	}
	newer, older := e, cur
	if cur.Arrived > e.Arrived {
		newer, older = cur, e
	}
	if newer.Latest != older.Latest && newer.Prev == "" {
		// Split histories: stitch older's head in front of newer's.
		newer.Prev = older.Latest
		p.link(newer.Object, older.Latest, newer.Latest, newer.Arrived)
	}
	return newer
}

// stitchInsert splices a late-reported visit — object seen at node nd
// at time `at`, arriving at the gateway after later visits were already
// indexed — into the object's IOP list at its chronological position.
// Window flushes from different nodes can reach the gateway in any
// order, so the late visit's true neighbours may lie anywhere down the
// chain; the gateway only indexes the head, so the insertion point is
// found by walking the list backwards from the head, after which both
// neighbouring links are re-pointed around nd.
//
// It returns false when an unreachable node interrupted the walk before
// the insertion point was known: writing links around an unverified
// position would disconnect reachable parts of the chain, so the caller
// defers the event and retries after the fault heals. Once a failure
// has persisted lateStitchRetries attempts (the segment's records left
// with a departed node), the event is abandoned: the visit stays
// recorded at nd, unlinked, exactly as reachable knowledge permits.
func (p *Peer) stitchInsert(obj moods.ObjectID, nd moods.NodeName, head IndexEntry, key ids.PrefixKey, at time.Duration) bool {
	if nd == head.Latest {
		return true
	}
	// Walk back from the head to the latest visit at or before `at`. The
	// plain fetch, not the failover read: a fault must defer the stitch.
	succNode, succAt := head.Latest, head.Arrived
	predNode := moods.Nowhere
	_, err := p.walkChain(obj, head.Latest, head.Arrived+1, p.fetchVisits, nil, func(node moods.NodeName, v VisitRecord) bool {
		if v.Arrived <= at {
			predNode = node
			return false
		}
		succNode, succAt = node, v.Arrived
		return true
	})
	// A chain that ends early (broken below, or wholly later than `at`)
	// inserts with no known predecessor; only a failed fetch defers.
	if err != nil && !errors.Is(err, errBrokenChain) {
		if p.lateRetry(obj, nd, at) {
			return false
		}
		p.tel.abandonedStitches.Inc()
		return true
	}
	p.lateForget(obj, nd, at)

	// pred → nd. A same-node predecessor means a re-sighting at nd with
	// no movement in between; like the head-move path, no link is
	// written (it also covers an already-inserted duplicate retry).
	if predNode != moods.Nowhere && predNode != nd {
		p.link(obj, predNode, nd, at)
	}
	p.link(obj, nd, succNode, succAt)
	// When nd slots in directly before the head it becomes the head's
	// predecessor — unless the head has advanced since the walk began.
	if succNode == head.Latest && succAt == head.Arrived && p.gw.setPrev(key, head.ID, head.Arrived, nd) {
		p.mirrorIndex(key, true)
	}
	return true
}

// gatewayGroupArrive processes one group indexing message, implementing
// the paper's Fig. 5 Index algorithm: update locally known records,
// refresh the rest from ascents and descents, update the index, stitch
// IOP links in per-source batches, then delegate if the bucket
// overflowed.
// It returns the late events whose IOP stitching had to be deferred on
// an unreachable chain segment; the reporting node re-buffers them.
func (p *Peer) gatewayGroupArrive(r groupArriveReq) []ObjEvent {
	if r.Key == individualKey {
		return nil
	}
	now := p.clock()
	sp := p.tel.tracer.StartPrefix(telemetry.OpIndex, r.Key)
	var idBuf [32]ids.ID
	evIDs := idBuf[:0]
	for _, ev := range r.Events {
		evIDs = append(evIDs, ev.hash())
	}

	// Partition events into locally indexed and unknown (objects'), and
	// refresh_from_ascent / refresh_from_descent the unknown set — only
	// when records can exist at other levels: Lp has been shorter
	// (ascent), Lp has been longer, or this bucket delegated (descent).
	// The historical-Lp guard is the paper's "while there exists
	// gateway node for prefix p′" condition. With mirrors the partition
	// also promotes replica copies. A pinned, unmirrored gateway whose
	// bucket never delegated has nowhere else to look: advance below
	// tells the unknown events apart, and the same steps are recorded
	// after it.
	lo, hi := p.pm.LpRange()
	partition := p.mirrors() > 0 || lo != r.Key.Len() || hi != r.Key.Len() || p.gw.delegatedFlag(r.Key)
	if partition {
		var missing []ids.ID
		for _, id := range evIDs {
			if _, ok := p.lookupWithReplica(r.Key, id); !ok {
				missing = append(missing, id)
			}
		}
		sp.Step(string(p.node.Addr()), noteArrive).Int(len(r.Events)).Str(string(r.Node)).Int(len(missing))
		if len(missing) > 0 {
			unknown := len(missing)
			if lo < r.Key.Len() {
				missing = p.refreshFromAscent(r.Key, missing)
			}
			if len(missing) > 0 && (hi > r.Key.Len() || p.gw.delegatedFlag(r.Key)) {
				p.refreshFromDescent(r.Key, missing, MaxDescent)
			}
			sp.Step(string(p.node.Addr()), noteRefresh).Int(unknown - len(missing)).Int(unknown)
		}
	}

	// update_index + IOP stitching, batched by previous node.
	var fromLinks []IOPLink
	var deferred []ObjEvent
	wrote := false
	var unknownBuf [32]ids.ID
	unknown := unknownBuf[:0] // without the partition: the events it would have found missing
	for i, ev := range r.Events {
		id := evIDs[i]
		prev, move := p.gw.advance(r.Key, IndexEntry{
			Object: ev.Object, ID: id, Latest: r.Node, Arrived: ev.Arrived, Indexed: now,
		}, nil)
		// An object reported twice in one message is unknown both times, as
		// in the partition: the repeat meets the head its first sighting
		// here wrote, which nothing but this loop can have written.
		if !partition && (move == headFirst || (prev.Indexed == now && prev.Prev == "" && slices.Contains(unknown, id))) {
			unknown = append(unknown, id)
		}
		switch move {
		case headLate:
			// Late observation (window flush ordering): splice it into
			// the IOP list at its chronological position instead of
			// moving the head.
			if !p.stitchInsert(ev.Object, r.Node, prev, r.Key, ev.Arrived) {
				p.tel.deferredStitches.Inc()
				deferred = append(deferred, ev)
			}
			continue
		case headMoved:
			fromLinks = append(fromLinks, IOPLink{Object: ev.Object, From: prev.Latest, At: ev.Arrived})
		}
		wrote = true
	}
	if !partition {
		sp.Step(string(p.node.Addr()), noteArrive).Int(len(r.Events)).Str(string(r.Node)).Int(len(unknown))
		if len(unknown) > 0 {
			sp.Step(string(p.node.Addr()), noteRefresh).Int(0).Int(len(unknown))
		}
	}
	p.mirrorIndex(r.Key, wrote)
	// One message per distinct source node (M2 batched), in node order,
	// each batch's objects in arrival order...
	msgs := p.sendMoves(sp, r, fromLinks)
	// ...and one message back to the destination (M3 batched).
	if len(fromLinks) > 0 {
		p.call(transport.Addr(r.Node), iopSetFromReq{Links: fromLinks})
		sp.Step(string(r.Node), noteM3).Int(len(fromLinks))
		msgs++
	}

	p.maybeDelegate(r.Key)
	if len(deferred) > 0 {
		sp.Step(string(p.node.Addr()), noteDeferred).Int(len(deferred))
	}
	sp.Finish(msgs, nil)
	return deferred
}

// sendMoves sends M2 for the moves of one group arrival: one message per
// source node, in byte order of the node names, carrying that node's
// objects in arrival order. It returns the number of messages sent.
func (p *Peer) sendMoves(sp *telemetry.Recording, r groupArriveReq, moves []IOPLink) int {
	var permBuf [32]int32
	perm := permBuf[:0]
	for i := range moves {
		perm = append(perm, int32(i))
	}
	slices.SortStableFunc(perm, func(a, b int32) int { return strings.Compare(string(moves[a].From), string(moves[b].From)) })
	objs := make([]moods.ObjectID, len(perm))
	for j, i := range perm {
		objs[j] = moves[i].Object
	}
	msgs := 0
	for lo := 0; lo < len(perm); {
		from := moves[perm[lo]].From
		hi := lo + 1
		for hi < len(perm) && moves[perm[hi]].From == from {
			hi++
		}
		p.call(transport.Addr(from), iopSetToReq{Objects: objs[lo:hi:hi], To: r.Node, At: r.At})
		sp.Step(string(from), noteM2).Int(hi - lo).Str(string(r.Node))
		msgs++
		lo = hi
	}
	return msgs
}

// refreshFromAscent pulls index records for the given objects from the
// gateways of successively shorter prefixes, down to L_min, returning
// the ids still unfound. Records found are moved into the local bucket.
func (p *Peer) refreshFromAscent(key ids.PrefixKey, objs []ids.ID) []ids.ID {
	remaining := objs
	lmin := p.pm.LMin()
	if lo, _ := p.pm.LpRange(); lo > lmin {
		// Records cannot exist above the shortest Lp ever current.
		lmin = lo
	}
	for cur := key; cur.Len() > lmin && len(remaining) > 0; {
		cur = cur.Parent()
		gwAddr, err := p.resolveGateway(cur)
		if err != nil {
			break
		}
		p.tel.ascentFetches.Inc()
		resp, err := p.call(gwAddr, fetchIndexReq{Key: cur, Objects: remaining})
		if err != nil {
			continue
		}
		fr := resp.(fetchIndexResp)
		if len(fr.Entries) == 0 {
			continue
		}
		p.putEntries(key, fr.Entries)
		remaining = missingFrom(remaining, fr.Entries)
	}
	return remaining
}

// refreshFromDescent pulls records from the Data Triangle child chain.
// Because children partition records by the next id bit, each object
// can only live under one child; the request set is filtered by prefix
// before each fetch (the paper's filter() pruning step). Recursion
// continues into grandchildren only while fetched buckets report
// delegation, bounded by maxDepth.
func (p *Peer) refreshFromDescent(key ids.PrefixKey, objs []ids.ID, maxDepth int) {
	if maxDepth <= 0 || len(objs) == 0 || key.Len() >= ids.MaxKeyLen {
		return
	}
	for bit := 0; bit <= 1; bit++ {
		child := key.Child(bit)
		var filtered []ids.ID
		for _, id := range objs {
			if child.Matches(id) {
				filtered = append(filtered, id)
			}
		}
		if len(filtered) == 0 {
			continue
		}
		gwAddr, err := p.resolveGateway(child)
		if err != nil {
			continue
		}
		p.tel.descentFetches.Inc()
		resp, err := p.call(gwAddr, fetchIndexReq{Key: child, Objects: filtered})
		if err != nil {
			continue
		}
		fr := resp.(fetchIndexResp)
		p.putEntries(key, fr.Entries)
		if fr.Delegated {
			unfound := missingFrom(filtered, fr.Entries)
			p.refreshFromDescent(child, unfound, maxDepth-1)
			// The recursive call upserted what it found deeper into this
			// node's bucket for the child prefix: move it up to key.
			if len(unfound) > 0 {
				deeper, _ := p.gw.take(child, unfound)
				p.mirrorIndex(child, len(deeper) > 0)
				p.putEntries(key, deeper)
			}
		}
	}
}

// putEntries stores records that arrived from another bucket (a refresh
// pulled them, or a migration could not deliver them) into the bucket
// keyed key and mirrors them.
func (p *Peer) putEntries(key ids.PrefixKey, entries []IndexEntry) {
	for _, e := range entries {
		p.gw.upsert(key, e)
	}
	p.mirrorIndex(key, len(entries) > 0)
}

// maybeDelegate pushes the α-earliest records of an overflowing bucket
// to its two Data Triangle children, keyed by the next id bit.
func (p *Peer) maybeDelegate(key ids.PrefixKey) {
	if key.Len() >= ids.MaxKeyLen {
		return
	}
	victims := p.gw.overflow(key, p.cfg.DelegationThreshold, p.cfg.DelegationAlpha)
	if len(victims) == 0 {
		return
	}
	split := [2][]IndexEntry{}
	for _, e := range victims {
		bit := key.NextBit(e.ID)
		split[bit] = append(split[bit], e)
	}
	sp := p.tel.tracer.StartPrefix(telemetry.OpDelegate, key)
	moved := 0
	for bit := 0; bit <= 1; bit++ {
		if len(split[bit]) == 0 {
			continue
		}
		child := key.Child(bit)
		gwAddr, err := p.resolveGateway(child)
		if err != nil {
			continue
		}
		if _, err := p.call(gwAddr, delegateReq{Key: child, Entries: split[bit]}); err != nil {
			sp.Step(string(gwAddr), noteDelegateFailed).Int(len(split[bit])).Prefix(child).Str(err.Error())
			continue
		}
		victimIDs := entryIDs(split[bit])
		p.gw.removeAll(key, victimIDs)
		p.gw.markDelegated(key)
		p.mirrorIndex(key, true)
		p.tel.delegations.Inc()
		p.tel.delegatedRecords.Add(uint64(len(split[bit])))
		moved += len(split[bit])
		sp.Step(string(gwAddr), noteDelegated).Int(len(split[bit])).Prefix(child)
	}
	sp.Finish(moved, nil)
}
