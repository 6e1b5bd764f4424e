package core

import (
	"fmt"
	"testing"
	"time"

	"peertrack/internal/chord"
	"peertrack/internal/gossip"
	"peertrack/internal/ids"
	"peertrack/internal/moods"
	"peertrack/internal/overlay"
	"peertrack/internal/replication"
)

func TestReplicationCopiesEntries(t *testing.T) {
	nw, err := BuildNetwork(NetworkConfig{
		Nodes: 12,
		Seed:  1,
		Peer:  Config{Mode: GroupIndexing, ReplicationFactor: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		nw.ScheduleObservation(moods.Observation{
			Object: moods.ObjectID(fmt.Sprintf("rep-%d", i)),
			Node:   nw.Peers()[i%12].Name(),
			At:     time.Second,
		})
	}
	nw.StartWindows(2 * time.Second)
	nw.Run()

	totalReplicas := 0
	for _, p := range nw.Peers() {
		totalReplicas += p.replica.totalEntries()
	}
	// Every record should exist on ~2 replicas.
	if totalReplicas < 50 {
		t.Fatalf("replica entries = %d, want >= 50", totalReplicas)
	}
}

func TestIndexSurvivesGatewayCrash(t *testing.T) {
	for _, mode := range []Mode{IndividualIndexing, GroupIndexing} {
		nw, err := BuildNetwork(NetworkConfig{
			Nodes: 16,
			Seed:  2,
			Peer:  Config{Mode: mode, ReplicationFactor: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		// Track an object observed at peer 3 only, so its IOP data and
		// its gateway are on different nodes with high probability.
		obj := moods.ObjectID("crash-victim")
		nw.ScheduleObservation(moods.Observation{Object: obj, Node: nw.Peers()[3].Name(), At: time.Second})
		nw.StartWindows(2 * time.Second)
		nw.Run()

		// Find the gateway node for the object's index.
		var gwKey ids.ID
		if mode == IndividualIndexing {
			gwKey = obj.Hash()
		} else {
			gwKey = ids.KeyOf(obj.Hash(), nw.PM.Lp()).GatewayID()
		}
		res, err := nw.Peers()[0].Node().Lookup(gwKey)
		if err != nil {
			t.Fatal(err)
		}
		gwAddr := res.Node.Addr
		if gwAddr == nw.Peers()[3].Addr() {
			// Gateway happens to be the observing node; crashing it
			// would also destroy the IOP data — not the scenario under
			// test.
			continue
		}

		// Crash the gateway without warning and let the ring repair.
		nw.Transport.Kill(gwAddr)
		var live []*chord.Node
		for _, p := range nw.Peers() {
			if p.Addr() != gwAddr {
				live = append(live, p.Node())
			}
		}
		for r := 0; r < 8; r++ {
			for _, n := range live {
				n.CheckPredecessor()
				n.Stabilize()
			}
		}
		for _, n := range live {
			n.FixAllFingers()
		}
		for _, p := range nw.Peers() {
			p.InvalidateGatewayCache()
		}

		// The locate must still answer, served from a promoted replica
		// at the new owner of the key range.
		var asker *Peer
		for _, p := range nw.Peers() {
			if p.Addr() != gwAddr {
				asker = p
				break
			}
		}
		loc, err := asker.Locate(obj, time.Hour)
		if err != nil {
			t.Fatalf("mode %d: locate after gateway crash: %v", mode, err)
		}
		if loc.Node != nw.Peers()[3].Name() {
			t.Fatalf("mode %d: located at %q, want %q", mode, loc.Node, nw.Peers()[3].Name())
		}
	}
}

func TestNoReplicationMeansCrashLosesIndex(t *testing.T) {
	// Control experiment: with factor 1 the same crash loses the
	// index — proving the replication path is what saved it above.
	nw, err := BuildNetwork(NetworkConfig{
		Nodes: 16,
		Seed:  2,
		Peer:  Config{Mode: GroupIndexing, ReplicationFactor: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	obj := moods.ObjectID("crash-victim")
	nw.ScheduleObservation(moods.Observation{Object: obj, Node: nw.Peers()[3].Name(), At: time.Second})
	nw.StartWindows(2 * time.Second)
	nw.Run()

	gwKey := ids.KeyOf(obj.Hash(), nw.PM.Lp()).GatewayID()
	res, err := nw.Peers()[0].Node().Lookup(gwKey)
	if err != nil {
		t.Fatal(err)
	}
	gwAddr := res.Node.Addr
	if gwAddr == nw.Peers()[3].Addr() {
		t.Skip("gateway co-located with observer for this seed")
	}
	nw.Transport.Kill(gwAddr)
	for r := 0; r < 8; r++ {
		for _, p := range nw.Peers() {
			if p.Addr() == gwAddr {
				continue
			}
			cn := p.Node()
			cn.CheckPredecessor()
			cn.Stabilize()
		}
	}
	for _, p := range nw.Peers() {
		if p.Addr() != gwAddr {
			p.Node().FixAllFingers()
			p.InvalidateGatewayCache()
		}
	}
	var asker *Peer
	for _, p := range nw.Peers() {
		if p.Addr() != gwAddr {
			asker = p
			break
		}
	}
	if _, err := asker.Locate(obj, time.Hour); err == nil {
		t.Fatal("locate succeeded without replicas after gateway crash")
	}
}

func TestReplicationAddsBoundedCost(t *testing.T) {
	run := func(replicas int) uint64 {
		nw, err := BuildNetwork(NetworkConfig{
			Nodes: 16,
			Seed:  3,
			Peer:  Config{Mode: GroupIndexing, ReplicationFactor: replicas + 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			nw.ScheduleObservation(moods.Observation{
				Object: moods.ObjectID(fmt.Sprintf("c-%d", i)),
				Node:   nw.Peers()[i%16].Name(),
				At:     time.Second,
			})
		}
		nw.StartWindows(2 * time.Second)
		nw.Run()
		return nw.Stats().Snapshot().Messages
	}
	base := run(0)
	with := run(2)
	if with <= base {
		t.Fatal("replication sent no extra messages")
	}
	if with > base*4 {
		t.Fatalf("replication cost blew up: %d -> %d", base, with)
	}
}

func TestLocateFallsThroughBeforeRingRepair(t *testing.T) {
	// The deterministic-failover window: the gateway is dead but the
	// ring has NOT re-wired yet, so no replica owns the range and none
	// may promote. Reads must still be answered from the mirrors.
	for _, mode := range []Mode{IndividualIndexing, GroupIndexing} {
		nw, err := BuildNetwork(NetworkConfig{
			Nodes: 16,
			Seed:  5,
			Peer:  Config{Mode: mode, ReplicationFactor: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		obj := moods.ObjectID("window-victim")
		nw.ScheduleObservation(moods.Observation{Object: obj, Node: nw.Peers()[3].Name(), At: time.Second})
		nw.StartWindows(2 * time.Second)
		nw.Run()

		var gwKey ids.ID
		if mode == IndividualIndexing {
			gwKey = obj.Hash()
		} else {
			gwKey = ids.KeyOf(obj.Hash(), nw.PM.Lp()).GatewayID()
		}
		res, err := nw.Peers()[0].Node().Lookup(gwKey)
		if err != nil {
			t.Fatal(err)
		}
		gwAddr := res.Node.Addr
		if gwAddr == nw.Peers()[3].Addr() {
			continue // gateway co-located with the IOP data; different scenario
		}

		// Crash the primary and immediately query: no stabilization, no
		// reconcile, no promotion possible.
		nw.Transport.Kill(gwAddr)
		promoBefore := nw.Telemetry.Counter("core.replication.promotions").Value()
		fallBefore := nw.Telemetry.Counter("core.replication.fallthrough_reads").Value()
		var asker *Peer
		for _, p := range nw.Peers() {
			if p.Addr() != gwAddr {
				asker = p
				break
			}
		}
		loc, err := asker.Locate(obj, time.Hour)
		if err != nil {
			t.Fatalf("mode %d: locate in crash window: %v", mode, err)
		}
		if loc.Node != nw.Peers()[3].Name() {
			t.Fatalf("mode %d: located at %q, want %q", mode, loc.Node, nw.Peers()[3].Name())
		}
		if got := nw.Telemetry.Counter("core.replication.fallthrough_reads").Value(); got <= fallBefore {
			t.Fatalf("mode %d: fallthrough counter did not move", mode)
		}
		if got := nw.Telemetry.Counter("core.replication.promotions").Value(); got != promoBefore {
			t.Fatalf("mode %d: replica promoted inside the static-ring window", mode)
		}
	}
}

func TestRepoMirrorServesIOPWalkAfterHolderCrash(t *testing.T) {
	// The object's index survives on the gateway, but the node holding
	// its visit records crashes: the IOP walk must fall through to the
	// repository mirrors.
	nw, err := BuildNetwork(NetworkConfig{
		Nodes: 16,
		Seed:  7,
		Peer:  Config{Mode: GroupIndexing, ReplicationFactor: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	obj := moods.ObjectID("walk-victim")
	holder := nw.Peers()[3]
	nw.ScheduleObservation(moods.Observation{Object: obj, Node: holder.Name(), At: time.Second})
	nw.StartWindows(2 * time.Second)
	nw.Run()

	gwKey := ids.KeyOf(obj.Hash(), nw.PM.Lp()).GatewayID()
	res, err := nw.Peers()[0].Node().Lookup(gwKey)
	if err != nil {
		t.Fatal(err)
	}
	if res.Node.Addr == holder.Addr() {
		t.Skip("gateway co-located with the repository holder for this seed")
	}
	nw.Transport.Kill(holder.Addr())

	var asker *Peer
	for _, p := range nw.Peers() {
		if p.Addr() != holder.Addr() {
			asker = p
			break
		}
	}
	loc, err := asker.Locate(obj, time.Hour)
	if err != nil {
		t.Fatalf("locate after repository holder crash: %v", err)
	}
	if loc.Node != holder.Name() {
		t.Fatalf("located at %q, want %q", loc.Node, holder.Name())
	}
	tr, err := asker.FullTrace(obj)
	if err != nil {
		t.Fatalf("trace after repository holder crash: %v", err)
	}
	if len(tr.Path) != 1 || tr.Path[0].Node != holder.Name() {
		t.Fatalf("trace path = %v, want single visit at %q", tr.Path, holder.Name())
	}
}

func TestRestartWithSameIdentityRestoresData(t *testing.T) {
	// A node that crashes and returns under the same address keeps its
	// ring position but loses its stores. Its mirrors then see a live
	// owner that never probes its old units: the stale-GC pass must
	// ship the copies back — index buckets via the gateway, the
	// repository via the owner — instead of dropping what may be the
	// last surviving copies.
	nw, err := BuildNetwork(NetworkConfig{
		Nodes: 12,
		Seed:  23,
		Peer:  Config{Mode: GroupIndexing, ReplicationFactor: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	const objects = 40
	for i := 0; i < objects; i++ {
		nw.ScheduleObservation(moods.Observation{
			Object: moods.ObjectID(fmt.Sprintf("reborn-%d", i)),
			Node:   nw.Peers()[i%12].Name(),
			At:     time.Second,
		})
	}
	nw.StartWindows(2 * time.Second)
	nw.Run()
	nw.SyncReplicas()

	victim := nw.Peers()[4]
	if victim.IndexedEntries() == 0 || victim.LocalVisits() == 0 {
		t.Fatalf("victim holds no data (%d indexed, %d visits); pick another seed",
			victim.IndexedEntries(), victim.LocalVisits())
	}
	wipe(victim)
	if victim.IndexedEntries() != 0 || victim.LocalVisits() != 0 {
		t.Fatal("wipe did not empty the victim's stores")
	}

	// One round opens a generation the reborn owner never touches; the
	// GC pass at its end must restore-then-drop. A second round lets
	// the restored buckets re-replicate.
	nw.SyncReplicas()
	nw.SyncReplicas()

	asker := nw.Peers()[0]
	for i := 0; i < objects; i++ {
		obj := moods.ObjectID(fmt.Sprintf("reborn-%d", i))
		if _, err := asker.Locate(obj, time.Hour); err != nil {
			t.Errorf("locate %s after restart restore: %v", obj, err)
		}
	}
	if victim.LocalVisits() == 0 {
		t.Error("victim's repository was not restored from its mirrors")
	}
	if nw.Telemetry.Counter("core.replication.restores").Value() == 0 {
		t.Error("no restores recorded by telemetry")
	}
}

// wipe gives p restart semantics: every store and all replication
// bookkeeping vanish; the address, ring position and liveness remain.
func wipe(p *Peer) {
	p.repo = newIOPStore(&p.names, p.mirrors() > 0)
	p.gw, p.replica = newGatewayStore(&p.names, p.mirrors() > 0), newGatewayStore(&p.names, false)
	p.repoReplica, p.contain, p.trans = &repoReplicaStore{}, newContainStore(), newTransitionStats()
	p.repl = replication.NewEngine()
}

func TestRestoreAfterFalseDeadVerdict(t *testing.T) {
	// The failure detector is the one owner of "dead". A mirror whose
	// detector declares an owner dead keeps that owner's units out of the
	// stale-replica restore, rightly: a dead owner cannot refresh them.
	// But the owner was only unreachable; it restarts empty and writes
	// nothing, so no replication traffic ever reaches the mirror — only
	// the restarted agent's first exchange does, and that resurrection
	// must be enough for the mirror to ship the units back.
	nw, err := BuildNetwork(NetworkConfig{
		Nodes:  12,
		Seed:   23,
		Peer:   Config{Mode: GroupIndexing, ReplicationFactor: 2},
		Gossip: &gossip.Config{},
	})
	if err != nil {
		t.Fatal(err)
	}
	const objects = 40
	for i := 0; i < objects; i++ {
		nw.ScheduleObservation(moods.Observation{
			Object: moods.ObjectID(fmt.Sprintf("reborn-%d", i)),
			Node:   nw.Peers()[i%12].Name(),
			At:     time.Second,
		})
	}
	nw.StartWindows(2 * time.Second)
	nw.Run()
	nw.SyncReplicas()

	victim := nw.Peers()[4]
	self := victim.Node().Self()
	indexed := victim.IndexedEntries()
	var mirror *Peer
	for _, p := range nw.Peers() {
		if len(p.repl.HeldFor(self.Addr)) > 0 {
			mirror = p
		}
	}
	if indexed == 0 || mirror == nil {
		t.Fatalf("victim indexes %d records and %v mirrors it; pick another seed", indexed, mirror)
	}
	for !mirror.gossip.Suspect(self) {
	}
	if !mirror.gossip.IsDead(self.Addr) || len(mirror.repl.HeldFor(self.Addr)) == 0 {
		t.Fatal("the verdict did not land, or the mirror promoted units their owner still owns")
	}

	// The owner restarts empty under the same identity: a new peer at its
	// address and in its place on the ring.
	reborn, err := NewPeer(nw.Transport, self.Addr, false, chord.Config{}, nw.PM, nw.cfg.Peer, nw.Kernel.Now, nw.Telemetry, nw.cfg.Gossip)
	if err != nil {
		t.Fatal(err)
	}
	nw.peers[4], nw.byName[victim.Name()] = reborn, reborn
	chord.WireStaticRing(nw.ring())
	nw.SyncReplicas()
	if got := reborn.IndexedEntries(); got != 0 {
		t.Fatalf("%d records restored while the detector still says dead", got)
	}
	// The restarted node's agent knows its successor, which is its mirror.
	reborn.gossip.SeedView([]overlay.NodeRef{mirror.Node().Self()})
	reborn.gossip.Round()
	if mirror.gossip.IsDead(self.Addr) {
		t.Fatal("inbound contact did not resurrect the owner")
	}
	for i := 0; i < 10; i++ {
		nw.SyncReplicas()
	}
	if got := reborn.IndexedEntries(); got != indexed {
		t.Errorf("%d of %d records restored at the restarted owner", got, indexed)
	}
	for i := 0; i < objects; i++ {
		obj := moods.ObjectID(fmt.Sprintf("reborn-%d", i))
		if _, err := nw.Peers()[0].Locate(obj, time.Hour); err != nil {
			t.Errorf("locate %s: %v", obj, err)
		}
	}
}

func TestShrinkHandsOffReplicaSets(t *testing.T) {
	// Departure hands a bucket's whole replica set to the delegate in
	// one step: the receiver adopts the version line and claims the
	// mirrors by probe instead of being re-shipped the bucket. The run
	// is deterministic, so the cost of Shrink(4) is pinned exactly: a
	// handoff that stops happening, or one that repairs more than it used
	// to, moves a pin. Each leaver hands all of its 14 buckets to its
	// successor; when leavers first re-levelled through their own stale
	// routing and evacuated the rest, 2 were handed off and 7 pushed
	// whole.
	nw, err := BuildNetwork(NetworkConfig{
		Nodes: 20,
		Seed:  11,
		Peer:  Config{Mode: GroupIndexing, ReplicationFactor: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		nw.ScheduleObservation(moods.Observation{
			Object: moods.ObjectID(fmt.Sprintf("handoff-%d", i)),
			Node:   nw.Peers()[i%20].Name(),
			At:     time.Second,
		})
	}
	nw.StartWindows(2 * time.Second)
	nw.Run()
	handoffs := nw.Telemetry.Counter("core.replication.handoffs")
	repairs := nw.Telemetry.Counter("core.replication.repair_pushes")
	h0, r0 := handoffs.Value(), repairs.Value()
	if _, _, err := nw.Shrink(4); err != nil {
		t.Fatal(err)
	}
	if got := handoffs.Value() - h0; got != 14 {
		t.Errorf("replica-set handoffs adopted during shrink = %d, want 14", got)
	}
	if got := repairs.Value() - r0; got != 3 {
		t.Errorf("full pushes during shrink = %d, want 3", got)
	}
	// Every object must remain locatable after the departure.
	asker := nw.Peers()[0]
	for i := 0; i < 80; i++ {
		obj := moods.ObjectID(fmt.Sprintf("handoff-%d", i))
		if _, err := asker.Locate(obj, time.Hour); err != nil {
			t.Fatalf("locate %s after shrink: %v", obj, err)
		}
	}
}

func TestSyncReplicasRepairsLostMirror(t *testing.T) {
	// Anti-entropy: a mirror that loses its copy (simulated restart) is
	// detected by the owner's version probe and repaired with a full
	// push at the next sync.
	nw, err := BuildNetwork(NetworkConfig{
		Nodes: 12,
		Seed:  13,
		Peer:  Config{Mode: GroupIndexing, ReplicationFactor: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		nw.ScheduleObservation(moods.Observation{
			Object: moods.ObjectID(fmt.Sprintf("repair-%d", i)),
			Node:   nw.Peers()[i%12].Name(),
			At:     time.Second,
		})
	}
	nw.StartWindows(2 * time.Second)
	nw.Run()
	nw.SyncReplicas()

	count := func() int {
		n := 0
		for _, p := range nw.Peers() {
			n += p.replica.totalEntries()
		}
		return n
	}
	intact := count()
	if intact < 40 {
		t.Fatalf("replica entries before corruption = %d, want >= 40", intact)
	}

	// Wipe one mirror's replica state wholesale (restart semantics:
	// bucket data and replication bookkeeping both gone).
	victim := nw.Peers()[5]
	for _, snap := range victim.DumpReplicas() {
		victim.replica.dropBucket(snap.Key)
		victim.repl.DropHeld(replication.IndexUnit(snap.Key))
	}
	if c := count(); c >= intact {
		t.Fatalf("corruption did not remove replicas: %d >= %d", c, intact)
	}

	nw.SyncReplicas()
	if c := count(); c != intact {
		t.Fatalf("replica entries after repair = %d, want %d", c, intact)
	}
}

// TestMirrorHandshake runs the one owner-side handshake (mirror /
// pushFull) against the one mirror-side accept rule (acceptPush) for
// every unit kind, at factor 2 so each owner has exactly one mirror.
// Mutation i of a unit writes record i and mirrors it the way the
// protocol paths do.
func TestMirrorHandshake(t *testing.T) {
	entry := func(i int) IndexEntry {
		obj := moods.ObjectID(fmt.Sprintf("hs-%d", i))
		return IndexEntry{Object: obj, ID: obj.Hash(), Latest: "somewhere", Arrived: time.Duration(i)}
	}
	type kind struct {
		name   string
		owned  replication.Unit                      // the unit as its owner tracks it
		held   func(owner *Peer) replication.Unit    // ... and as the mirror does
		mutate func(owner *Peer, i int)              // mutation i, mirrored
		has    func(owner, mirror *Peer, i int) bool // the mirror holds record i
	}
	bucket := func(name string, key ids.PrefixKey) kind {
		return kind{
			name:   name,
			owned:  replication.IndexUnit(key),
			held:   func(*Peer) replication.Unit { return replication.IndexUnit(key) },
			mutate: func(owner *Peer, i int) { owner.putEntries(key, []IndexEntry{entry(i)}) },
			has: func(_, mirror *Peer, i int) bool {
				_, ok := mirror.replica.lookup(key, entry(i).ID)
				return ok
			},
		}
	}
	kinds := []kind{
		bucket("prefix bucket", mustKey("0101")),
		bucket("individual bucket", individualKey),
		{
			name:  "repository",
			owned: replication.RepoUnit,
			held:  func(owner *Peer) replication.Unit { return repoUnitOf(owner.Addr()) },
			mutate: func(owner *Peer, i int) {
				owner.repo.record(entry(i).Object, time.Duration(i))
				owner.flushRepoMirror()
			},
			has: func(owner, mirror *Peer, i int) bool {
				_, ok := mirror.repoReplica.get(owner.Addr(), entry(i).Object)
				return ok
			},
		},
	}

	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			nw := buildNet(t, 8, Config{ReplicationFactor: 2})
			owner := nw.Peers()[2]
			mirror, _ := nw.PeerByName(moods.NodeName(owner.mirrorSet()[0]))
			held := k.held(owner)
			deltas := nw.Telemetry.Counter("core.replication.mirror_writes")
			fulls := nw.Telemetry.Counter("core.replication.repair_pushes")
			// step runs do and checks what it cost, and that the mirror
			// ends up holding the owner's version of records 0..upTo.
			step := func(what string, do func(), wantDeltas, wantFulls uint64, upTo int) {
				t.Helper()
				d0, f0 := deltas.Value(), fulls.Value()
				do()
				if d, f := deltas.Value()-d0, fulls.Value()-f0; d != wantDeltas || f != wantFulls {
					t.Fatalf("%s: %d delta and %d full pushes, want %d and %d", what, d, f, wantDeltas, wantFulls)
				}
				v, _ := owner.repl.Version(k.owned)
				if o, hv, ok := mirror.repl.HeldMeta(held); !ok || o != owner.Addr() || hv != v {
					t.Fatalf("%s: mirror holds %s/%d (held=%v), want %s/%d", what, o, hv, ok, owner.Addr(), v)
				}
				if synced := owner.repl.SyncedAt(k.owned, mirror.Addr()); synced != v {
					t.Fatalf("%s: owner believes the mirror at %d, want %d", what, synced, v)
				}
				for i := 0; i <= upTo; i++ {
					if !k.has(owner, mirror, i) {
						t.Fatalf("%s: mirror lacks record %d", what, i)
					}
				}
			}

			step("first push", func() { k.mutate(owner, 0) }, 1, 0, 0)
			if v, _ := owner.repl.Version(k.owned); v != 1 {
				t.Fatalf("first mutation yields version %d, want 1", v)
			}
			step("consecutive delta", func() { k.mutate(owner, 1) }, 1, 0, 1)

			// A gap: the mirror is behind what the owner believes (it
			// restarted from an older snapshot). The delta is refused and
			// one full push repairs it within the same mutation.
			mirror.repl.RecordHeld(held, owner.Addr(), 1)
			step("gap", func() { k.mutate(owner, 2) }, 0, 1, 2)

			// The mirror loses its copy: the next probe round finds out.
			mirror.dropHeld(held)
			if k.has(owner, mirror, 0) {
				t.Fatal("dropHeld left the data behind")
			}
			step("lost copy", owner.SyncOwnedReplicas, 0, 1, 2)
			step("probe of a current mirror", owner.SyncOwnedReplicas, 0, 0, 2)

			// The mirror is unreachable for one mutation: the owner forgets
			// what it held, and the next mutation ships full state without
			// trying a delta first.
			nw.Transport.Kill(mirror.Addr())
			k.mutate(owner, 3)
			if synced := owner.repl.SyncedAt(k.owned, mirror.Addr()); synced != 0 {
				t.Fatalf("unreachable mirror still recorded at version %d", synced)
			}
			nw.Transport.Revive(mirror.Addr())
			step("after an outage", func() { k.mutate(owner, 4) }, 0, 1, 4)
		})
	}
}
