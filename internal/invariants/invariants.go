// Package invariants is the whole-network protocol-invariant checker
// behind the chaos harness (internal/chaos) and the root package's TCP
// fleet tests. Given the peers of a quiesced network, a simulated one's
// or a live fleet's, Check inspects every peer's state directly — gateway
// buckets, local repositories, IOP links, the overlay ring, the replica
// copies — without sending a single message, and reports every way the
// global state disagrees with the PeerTrack protocol's correctness
// conditions:
//
//   - gateway placement: every index bucket lives on the overlay node
//     that currently owns its gateway identifier (the successor of
//     hash(prefix) — Section IV-A1), and ownership of every probed key
//     is claimed by exactly one live node;
//   - triangle prefix discipline: a group bucket only holds records
//     whose hashed id extends the bucket's prefix (the Data Triangle
//     delegation rule of Section IV-A2);
//   - index uniqueness and reachability: each tracked object has
//     exactly one index record network-wide, and the Section IV-A3
//     bidirectional search (descent along the object's bits, ascent
//     towards L_min) finds it from the current prefix level;
//   - index head correctness: the record's Latest/Arrived equal the
//     oracle's most recent observation;
//   - IOP list consistency: walking the distributed doubly-linked list
//     backwards from the index head visits only (node, time) pairs the
//     oracle recorded, terminates, and — when exactness is required —
//     reproduces the full trajectory; forward (To) links mirror the
//     backward chain;
//   - ring convergence (CheckRing) and k-successor replica agreement
//     (CheckReplicaAgreement).
//
// Without an oracle the ground truth is what the repositories hold,
// every stored visit by arrival, and the same checks read: visits nobody
// indexes, a head that is not the latest stored visit, a backward walk
// that misses a stored visit. Transport conservation (CheckStats,
// CheckResilience) belongs to whoever owns the counters.
//
// The checker reads state through the core package's inspection API
// (Peer.DumpIndex and friends), so a checkpoint never perturbs message
// statistics or the fault-injection randomness stream — interleaving
// checks between chaos steps cannot change what a seed replays.
package invariants

import (
	"fmt"
	"slices"
	"sort"

	"peertrack/internal/chord"
	"peertrack/internal/core"
	"peertrack/internal/ids"
	"peertrack/internal/moods"
	"peertrack/internal/transport"
)

// Violation is one detected breach of a protocol invariant.
type Violation struct {
	// Invariant names the broken rule (e.g. "gateway-placement",
	// "iop-exact"); the catalog is documented in DESIGN.md.
	Invariant string
	// Node is the peer where the inconsistency materialises ("" when
	// the violation is global, e.g. ownership or stats).
	Node moods.NodeName
	// Object is the tracked object involved ("" for structural
	// violations).
	Object moods.ObjectID
	// Detail is a human-readable description with the observed vs
	// expected values.
	Detail string
}

func (v Violation) String() string {
	s := v.Invariant
	if v.Node != "" {
		s += fmt.Sprintf(" node=%s", v.Node)
	}
	if v.Object != "" {
		s += fmt.Sprintf(" obj=%s", v.Object)
	}
	return s + ": " + v.Detail
}

// Options tunes how strict a check is. The zero value is the loose
// profile: structural invariants only, suitable for checkpoints taken
// while messages may have been lost.
type Options struct {
	// Exact additionally demands that every object's IOP chain reproduce
	// the oracle trajectory exactly, and that every forward (To) link's
	// target hold the mirroring visit with a matching From pointer. Only
	// valid at checkpoints where no stitch message can have been lost
	// (drop rate zero and fully-connected flushes).
	Exact bool
	// SkipIOP excludes objects from the IOP-chain checks (structural
	// index checks still apply). The chaos runner populates it with
	// objects whose trajectory crossed a departed node — their
	// repository left the network with them, by design.
	SkipIOP map[moods.ObjectID]bool
}

// maxViolations caps a report; checking stops early once reached.
const maxViolations = 64

// Check inspects the whole network through its peers and returns every
// invariant violation found (nil if the state is consistent): buckets,
// objects, the Chord ring, replica agreement, in that order. The network
// must be quiesced: no event mid-flight, no window holding an event.
func Check(peers []*core.Peer, oracle *moods.HistoryStore, opts Options) []Violation {
	c := &checker{peers: peers, oracle: oracle, opts: opts}
	ring := make([]*chord.Node, len(peers))
	for i, p := range peers {
		ring[i] = p.Node()
	}
	c.snapshot()
	c.checkBuckets()
	c.checkObjects()
	out := append(append(c.out, CheckRing(ring)...), CheckReplicaAgreement(peers)...)
	return out[:min(len(out), maxViolations)]
}

// CheckStats verifies the transport accounting identity: every call
// produces a request and either a response (completed) or no response
// (dropped or blocked), so Messages == 2·Calls − Drops − Blocked, and
// every drop or block is also billed as a failure.
func CheckStats(s transport.Snapshot) []Violation {
	if s.Conserves() {
		return nil
	}
	return []Violation{{
		Invariant: "stats-conservation",
		Detail: fmt.Sprintf("calls=%d messages=%d failures=%d drops=%d blocked=%d",
			s.Calls, s.Messages, s.Failures, s.Drops, s.Blocked),
	}}
}

// checker carries one Check pass.
type checker struct {
	oracle *moods.HistoryStore
	opts   Options
	peers  []*core.Peer

	// Immutable snapshots taken up front so every check sees one
	// consistent cut of the state; each map has a key for every peer.
	dumps  map[moods.NodeName][]core.BucketSnapshot
	bucket map[moods.NodeName]map[ids.PrefixKey]*core.BucketSnapshot
	visits map[moods.NodeName]map[moods.ObjectID][]core.VisitRecord
	names  []moods.NodeName // the peers' names, sorted
	// views is each distinct PrefixManager among the peers with the first
	// peer that routes by it (nobody in particular in the simulator, where
	// all share one): reachability is judged once per view.
	views []view

	out  []Violation
	full bool
}

func (c *checker) add(inv string, node moods.NodeName, obj moods.ObjectID, format string, args ...any) {
	if c.full {
		return
	}
	c.out = append(c.out, Violation{Invariant: inv, Node: node, Object: obj, Detail: fmt.Sprintf(format, args...)})
	if len(c.out) >= maxViolations {
		c.full = true
	}
}

func (c *checker) snapshot() {
	c.dumps = make(map[moods.NodeName][]core.BucketSnapshot, len(c.peers))
	c.bucket = make(map[moods.NodeName]map[ids.PrefixKey]*core.BucketSnapshot, len(c.peers))
	c.visits = make(map[moods.NodeName]map[moods.ObjectID][]core.VisitRecord, len(c.peers))
	for _, p := range c.peers {
		name := p.Name()
		dump := p.DumpIndex()
		c.dumps[name] = dump
		byKey := make(map[ids.PrefixKey]*core.BucketSnapshot, len(dump))
		for i := range dump {
			byKey[dump[i].Key] = &dump[i]
		}
		c.bucket[name] = byKey
		c.visits[name] = p.DumpVisits()
		c.names = append(c.names, name)
		if !slices.ContainsFunc(c.views, func(v view) bool { return v.pm == p.Prefixes() }) {
			c.views = append(c.views, view{p.Prefixes(), name})
		}
	}
	slices.Sort(c.names)
	if len(c.views) == 1 {
		c.views[0].node = ""
	}
	if c.oracle == nil { // the repositories' own record stands in
		c.oracle = moods.NewHistoryStore()
		for _, name := range c.names {
			for obj, vs := range c.visits[name] {
				for _, v := range vs {
					c.oracle.Record(moods.Observation{Object: obj, Node: name, At: v.Arrived})
				}
			}
		}
	}
}

type view struct {
	pm   *core.PrefixManager
	node moods.NodeName
}

// ownerOf returns the unique live peer owning key, reporting an
// ownership violation when zero or several claim it.
func (c *checker) ownerOf(key ids.ID, obj moods.ObjectID) (*core.Peer, bool) {
	var owner *core.Peer
	for _, p := range c.peers {
		if !p.Node().Owns(key) {
			continue
		}
		if owner != nil {
			c.add("ownership", "", obj, "key %s claimed by both %s and %s", key.Short(), owner.Name(), p.Name())
			return nil, false
		}
		owner = p
	}
	if owner == nil {
		c.add("ownership", "", obj, "key %s owned by no live node", key.Short())
		return nil, false
	}
	return owner, true
}

// checkBuckets validates every bucket structurally: placement on the
// owning node, prefix discipline, hash integrity, and global uniqueness
// of index records.
func (c *checker) checkBuckets() {
	where := make(map[moods.ObjectID]string) // object -> "node/bucket" of first sighting
	for _, p := range c.peers {
		name := p.Name()
		for _, b := range c.dumps[name] {
			for _, e := range b.Entries {
				if e.ID != e.Object.Hash() {
					c.add("entry-hash", name, e.Object, "stored id %s != hash %s", e.ID.Short(), e.Object.Hash().Short())
				}
				if e.Latest == "" {
					c.add("entry-head", name, e.Object, "index record with empty Latest")
				}
				if b.Key == core.IndividualBucketKey {
					if !p.Node().Owns(e.ID) {
						c.add("gateway-placement", name, e.Object, "individual record not owned (id %s)", e.ID.Short())
					}
				} else if !b.Key.Matches(e.ID) {
					c.add("triangle-prefix", name, e.Object, "id %s outside bucket prefix %s", e.ID.Short(), b.Key)
				}
				loc := string(name) + "/" + b.Key.String()
				if prev, dup := where[e.Object]; dup {
					c.add("index-unique", name, e.Object, "also indexed at %s", prev)
				} else {
					where[e.Object] = loc
				}
			}
			if b.Key != core.IndividualBucketKey && len(b.Entries) > 0 {
				if owner, ok := c.ownerOf(b.Key.GatewayID(), ""); ok && owner != p {
					c.add("gateway-placement", name, "", "bucket %s belongs on %s", b.Key, owner.Name())
				}
			}
		}
	}
}

// checkObjects validates, for every object the oracle knows, that the
// index record is reachable from every view (the first that misses it
// is named) and correct and that the IOP list matches the recorded
// trajectory.
func (c *checker) checkObjects() {
	for _, obj := range c.oracle.ObjectIDs() {
		if c.full {
			return
		}
		hist := c.oracle.FullTrace(obj)
		entry, found := core.IndexEntry{}, true
		for i := 0; found && i < len(c.views); i++ {
			if entry, found = c.findIndex(c.views[i].pm, obj); !found {
				c.add("index-missing", c.views[i].node, obj, "no index record reachable via the IV-A3 search")
			}
		}
		if !found {
			continue
		}
		last := hist[len(hist)-1]
		if entry.Latest != last.Node || entry.Arrived != last.Arrived {
			c.add("index-head", "", obj, "index says %s@%v, oracle says %s@%v",
				entry.Latest, entry.Arrived, last.Node, last.Arrived)
			continue // the walk below would start from the wrong head
		}
		if c.opts.SkipIOP[obj] {
			continue
		}
		c.checkIOP(obj, entry, hist)
	}
}

// findIndex statically mirrors the core query path (Peer.findIndex):
// current-level probe, Data Triangle descent along the object's bits,
// then ascent towards L_min — against the snapshotted buckets.
func (c *checker) findIndex(pm *core.PrefixManager, obj moods.ObjectID) (core.IndexEntry, bool) {
	id := obj.Hash()
	if len(c.peers) > 0 && c.peers[0].Mode() == core.IndividualIndexing {
		owner, ok := c.ownerOf(id, obj)
		if !ok {
			return core.IndexEntry{}, false
		}
		e, found, _ := c.probeAt(owner, core.IndividualBucketKey, id, obj)
		return e, found
	}

	lp := pm.Lp()
	key := ids.KeyOf(id, lp)
	entry, found, delegated := c.probe(key, id, obj)
	if found {
		return entry, true
	}

	lo, hi := pm.LpRange()
	child := key
	for depth := 0; (delegated || hi > child.Len()) && depth < core.MaxDescent && child.Len() < ids.MaxKeyLen; depth++ {
		child = child.Child(child.NextBit(id))
		entry, found, delegated = c.probe(child, id, obj)
		if found {
			return entry, true
		}
	}

	lmin := pm.LMin()
	if lo > lmin {
		lmin = lo
	}
	for cur := key; cur.Len() > lmin; {
		cur = cur.Parent()
		entry, found, delegated = c.probe(cur, id, obj)
		if found {
			return entry, true
		}
		if delegated {
			ch := cur.Child(cur.NextBit(id))
			if ch.Len() != lp {
				entry, found, _ = c.probe(ch, id, obj)
				if found {
					return entry, true
				}
			}
		}
	}
	return core.IndexEntry{}, false
}

// probe looks an object up in one prefix bucket on that prefix's owner,
// returning (entry, found, delegated).
func (c *checker) probe(key ids.PrefixKey, id ids.ID, obj moods.ObjectID) (core.IndexEntry, bool, bool) {
	owner, ok := c.ownerOf(key.GatewayID(), obj)
	if !ok {
		return core.IndexEntry{}, false, false
	}
	return c.probeAt(owner, key, id, obj)
}

func (c *checker) probeAt(owner *core.Peer, key ids.PrefixKey, id ids.ID, obj moods.ObjectID) (core.IndexEntry, bool, bool) {
	b := c.bucket[owner.Name()][key]
	if b == nil {
		return core.IndexEntry{}, false, false
	}
	i := sort.Search(len(b.Entries), func(i int) bool { return !b.Entries[i].ID.Less(id) })
	if i < len(b.Entries) && b.Entries[i].ID == id {
		return b.Entries[i], true, b.Delegated
	}
	return core.IndexEntry{}, false, b.Delegated
}

// checkIOP walks the distributed doubly-linked list backwards from the
// index head and compares the chain against the oracle trajectory.
func (c *checker) checkIOP(obj moods.ObjectID, entry core.IndexEntry, hist moods.Path) {
	// The oracle's (node, time) pairs, for membership tests.
	inOracle := make(map[moods.Visit]bool, len(hist))
	for _, v := range hist {
		inOracle[v] = true
	}

	var rev []moods.Visit
	cur := entry.Latest
	boundDur := int64(-1) // pickVisit semantics: negative bound = latest overall
	maxSteps := len(hist) + 2
	for step := 0; ; step++ {
		if step >= maxSteps {
			c.add("iop-cycle", cur, obj, "walk exceeded %d steps (oracle path has %d visits)", maxSteps, len(hist))
			return
		}
		vs, ok := c.visits[cur][obj]
		if !ok {
			if _, present := c.visits[cur]; !present {
				// The chain points into a departed node's repository;
				// the data left with it. Only exactness can complain.
				if c.opts.Exact {
					c.add("iop-dangling", cur, obj, "chain reaches departed node")
				}
				return
			}
			c.add("iop-broken", cur, obj, "node holds no visits for object")
			return
		}
		v, ok := pickVisit(vs, boundDur)
		if !ok {
			c.add("iop-broken", cur, obj, "no visit before bound %d", boundDur)
			return
		}
		if !inOracle[moods.Visit{Node: cur, Arrived: v.Arrived}] {
			c.add("iop-foreign", cur, obj, "visit @%v never recorded by the oracle", v.Arrived)
			return
		}
		rev = append(rev, moods.Visit{Node: cur, Arrived: v.Arrived})
		if v.From == "" {
			break
		}
		boundDur = int64(v.Arrived)
		cur = v.From
	}

	if c.opts.Exact {
		got := make(moods.Path, len(rev))
		for i, v := range rev {
			got[len(rev)-1-i] = v
		}
		if !got.Equal(hist) {
			c.add("iop-exact", "", obj, "chain %v != oracle %v", got, hist)
		}
	}

	// Forward-pointer mirror: every To link must target a node that
	// (if still present) holds a strictly later visit of the object.
	for _, name := range c.names {
		for _, v := range c.visits[name][obj] {
			if v.To == "" {
				continue
			}
			tvs, present := c.visits[v.To][obj]
			if !present {
				if _, alive := c.visits[v.To]; !alive {
					continue // target departed with its repository
				}
				c.add("iop-mirror", name, obj, "To=%s holds no visits", v.To)
				continue
			}
			mirrored := false
			for _, tv := range tvs {
				if tv.Arrived > v.Arrived && (!c.opts.Exact || tv.From == name) {
					mirrored = true
					break
				}
			}
			if !mirrored {
				c.add("iop-mirror", name, obj, "To=%s has no later visit mirroring @%v", v.To, v.Arrived)
			}
		}
	}
}

// pickVisit mirrors core's traversal rule: the latest visit strictly
// before bound, or the latest overall when bound < 0.
func pickVisit(visits []core.VisitRecord, bound int64) (core.VisitRecord, bool) {
	for i := len(visits) - 1; i >= 0; i-- {
		if bound < 0 || int64(visits[i].Arrived) < bound {
			return visits[i], true
		}
	}
	return core.VisitRecord{}, false
}
