package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"peertrack/internal/ids"
	"peertrack/internal/moods"
	"peertrack/internal/replication"
	"peertrack/internal/transport"
)

// mirrorOf returns the one mirror a factor-2 peer pushes to. Like
// gatewayOf it is called from worker goroutines, so it reports nothing
// itself: on the static ring neither can fail.
func mirrorOf(nw *Network, p *Peer) *Peer {
	m, _ := nw.PeerByName(moods.NodeName(p.mirrorSet()[0]))
	return m
}

// gatewayOf resolves the peer that is gateway for obj, and the bucket
// key it files obj under.
func gatewayOf(nw *Network, obj moods.ObjectID) (*Peer, ids.PrefixKey) {
	p, id := nw.Peers()[0], obj.Hash()
	key := p.keyOf(id, nw.lp())
	addr, _, err := p.resolve(key, id)
	if err != nil {
		panic(err)
	}
	gw, _ := nw.PeerByName(moods.NodeName(addr))
	return gw, key
}

// assertReplicasEqualPrimaries compares every peer's buckets and
// repository with the copies its mirror holds.
func assertReplicasEqualPrimaries(t *testing.T, nw *Network) {
	t.Helper()
	for _, p := range nw.Peers() {
		m := mirrorOf(nw, p)
		for _, key := range p.gw.bucketKeys() {
			want, wd := p.gw.dumpBucket(key)
			got, gd := m.replica.dumpBucket(key)
			if wd != gd || !reflect.DeepEqual(got, want) {
				t.Errorf("%s: bucket %s at mirror %s has %d records, primary %d (or they differ)", p.Name(), key, m.Name(), len(got), len(want))
			}
		}
		if got, want := m.repoReplica.dump()[p.Addr()], p.repo.snapshot(); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Errorf("%s: repository at mirror %s has %d objects, primary %d (or they differ)", p.Name(), m.Name(), len(got), len(want))
		}
	}
}

// TestConcurrentHandlersShareOneMirrorStream is the regression test the
// single-threaded simulator cannot give: handler goroutines of one node
// mutate the same replication unit at once — every stitch and every
// window flush touches the node's one repository unit. Each must leave
// the mirror holding its change by the time it returns, and none may
// conclude from another's version bump that the mirror is behind and
// re-ship the whole unit.
func TestConcurrentHandlersShareOneMirrorStream(t *testing.T) {
	const (
		workers = 8
		rounds  = 150
	)
	nw := buildNet(t, 4, Config{ReplicationFactor: 2})
	peers := nw.Peers()
	// Initial sync: every repository and every bucket exists at its
	// mirror before the concurrent phase.
	for i := 0; i < 64; i++ {
		p := peers[i%len(peers)]
		if err := p.Observe(moods.Observation{Object: moods.ObjectID(fmt.Sprintf("seed-%d", i)), At: time.Second}); err != nil {
			t.Fatal(err)
		}
	}
	nw.FlushAll()
	nw.SyncReplicas()
	pushes := nw.Telemetry.Counter("core.replication.repair_pushes")
	base := pushes.Value()

	// Beside the handlers, as on a live node, the maintenance goroutine
	// runs the replica-sync row: its probe rounds take turns on the same
	// streams, and a writer queued behind one must still get its own.
	stop, synced := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(synced)
		for {
			for _, p := range peers {
				p.replicaSync()
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// The object is this worker's alone, so what the mirrors
				// hold of it right after a handler returns is that
				// handler's doing; the units it lives in are everyone's.
				obj := moods.ObjectID(fmt.Sprintf("w%d-r%d", w, r))
				a, b, c := peers[(w+r)%4], peers[(w+r+1)%4], peers[(w+r+2)%4]
				t1, t2, t3 := time.Duration(3*r+2)*time.Second, time.Duration(3*r+3)*time.Second, time.Duration(3*r+4)*time.Second
				visit := func(obj moods.ObjectID, at *Peer, arrived time.Duration) (VisitRecord, bool) {
					vs, _ := mirrorOf(nw, at).repoReplica.get(at.Addr(), obj)
					v, ok := pickVisit(vs, arrived+1)
					return v, ok && v.Arrived == arrived
				}

				// A capture at a; the flush mirrors it. Whose flush carries
				// the event to its gateway is open — the window is the
				// node's — so it gets an object of its own: two reports of
				// one object racing at a gateway are ROADMAP item 1, not
				// this test.
				seen := obj + "-seen"
				if err := a.Observe(moods.Observation{Object: seen, At: t1}); err != nil {
					t.Error(err)
				}
				if err := a.FlushWindow(); err != nil {
					t.Error(err)
				}
				if _, ok := visit(seen, a, t1); !ok {
					t.Errorf("%s: capture at %s not at its mirror after the flush returned", seen, a.Name())
				}

				// Captured at b, which reports the arrival to the gateway.
				b.repo.record(obj, t2)
				gw, key := gatewayOf(nw, obj)
				if _, err := gw.handleRPC(b.Addr(), groupArriveReq{Key: key, Events: []ObjEvent{{Object: obj, Arrived: t2}}, Node: b.Name(), At: t2}); err != nil {
					t.Error(err)
				}
				if e, ok := mirrorOf(nw, gw).replica.lookup(key, obj.Hash()); !ok || e.Latest != b.Name() || e.Arrived != t2 {
					t.Errorf("%s: index record at the gateway's mirror is %+v (found %v) after groupArriveReq returned", obj, e, ok)
				}

				// The object moves on to c: the two stitch messages.
				if _, err := b.handleRPC(gw.Addr(), iopSetToReq{Objects: []moods.ObjectID{obj}, To: c.Name(), At: t3}); err != nil {
					t.Error(err)
				}
				if v, ok := visit(obj, b, t2); !ok || v.To != c.Name() {
					t.Errorf("%s: visit at %s's mirror is %+v (found %v) after iopSetToReq returned", obj, b.Name(), v, ok)
				}
				if _, err := c.handleRPC(gw.Addr(), iopSetFromReq{Links: []IOPLink{{Object: obj, From: b.Name(), At: t3}}}); err != nil {
					t.Error(err)
				}
				if v, ok := visit(obj, c, t3); !ok || v.From != b.Name() {
					t.Errorf("%s: visit at %s's mirror is %+v (found %v) after iopSetFromReq returned", obj, c.Name(), v, ok)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-synced
	nw.FlushAll()

	if grew := pushes.Value() - base; grew != 0 {
		t.Errorf("%d whole-unit pushes on a healthy static ring (coalesced mutations: %d)", grew,
			nw.Telemetry.Counter("core.replication.coalesced").Value())
	}
	assertReplicasEqualPrimaries(t, nw)
	// Every version line agrees too: a probe round repairs nothing.
	nw.SyncReplicas()
	if grew := pushes.Value() - base; grew != 0 {
		t.Errorf("the probe round after quiescence re-shipped %d units", grew)
	}
}

// TestReadsDoNotQueueBehindABlockedMirrorPush pins what replicated
// ingest promised, "reads must not queue behind a flush": while the
// owner's push to its mirror hangs, the owner still answers index reads
// — were they to wait for the push the test would hang, and the go test
// timeout report it — and a second writer of the same unit waits for
// the stream instead of sending a push of its own.
func TestReadsDoNotQueueBehindABlockedMirrorPush(t *testing.T) {
	nw := buildNet(t, 4, Config{ReplicationFactor: 2})
	obj := moods.ObjectID("settled")
	owner, key := gatewayOf(nw, obj)
	var reporter *Peer
	for _, p := range nw.Peers() {
		if p != owner {
			reporter = p
		}
	}
	if err := reporter.Observe(moods.Observation{Object: obj, At: time.Second}); err != nil {
		t.Fatal(err)
	}
	nw.FlushAll()

	// The mirror's handler holds every index push until the gate opens.
	entered, gate := gateMirror(mirrorOf(nw, owner), func(req any) bool {
		_, push := req.(replicatePutReq)
		return push
	})
	// Two more objects of the same bucket, one writer each.
	var same []moods.ObjectID
	for i := 0; len(same) < 2; i++ {
		if o := moods.ObjectID(fmt.Sprintf("other-%d", i)); ids.KeyOf(o.Hash(), nw.lp()) == key {
			same = append(same, o)
		}
	}
	done := make(chan struct{}, 2)
	write := func(o moods.ObjectID) {
		if _, err := owner.handleRPC(reporter.Addr(), groupArriveReq{Key: key, Events: []ObjEvent{{Object: o, Arrived: time.Second}}, Node: reporter.Name(), At: time.Second}); err != nil {
			t.Error(err)
		}
		done <- struct{}{}
	}
	go write(same[0])
	<-entered // the first writer's push is in flight, and stuck
	go write(same[1])
	for queued := 0; queued == 0; runtime.Gosched() {
		owner.gw.mu.Lock()
		queued = len(owner.gw.dirty[key])
		owner.gw.mu.Unlock()
	}

	resp, err := owner.handleRPC(reporter.Addr(), queryIndexReq{Key: key, Objects: []ids.ID{obj.Hash()}})
	if err != nil || len(resp.(queryIndexResp).Entries) != 1 {
		t.Errorf("queryIndexReq at the owner: %+v, %v", resp, err)
	}
	if res, err := reporter.Locate(obj, 2*time.Second); err != nil || res.Node != reporter.Name() {
		t.Errorf("Locate = %+v, %v", res, err)
	}
	if len(done) > 0 {
		t.Error("a writer returned while the mirror had acknowledged nothing")
	}

	close(gate)
	<-done
	<-done
	// The second writer's change went out after the first's, as the
	// delta extending it: one more push, not a whole unit.
	if n := len(entered); n != 1 {
		t.Errorf("the mirror saw %d index pushes after the first, want 1", n)
	}
	if n := nw.Telemetry.Counter("core.replication.repair_pushes").Value(); n != 0 {
		t.Errorf("%d whole-unit pushes", n)
	}
	assertReplicasEqualPrimaries(t, nw)
}

// TestObserveDoesNotQueueBehindAFlushInFlight is the write side of the
// test above: while a call of the peer waits on the network — a
// FlushWindow's repository push held at the mirror (the first case), or
// the overlay lookup of a gateway by a flush, a Locate or a FullTrace —
// the peer still takes observations into its window and reports its
// size. Were the peer's mutex held across the wait, Observe would queue
// behind it; the watchdog names the case instead of the go test timeout.
func TestObserveDoesNotQueueBehindAFlushInFlight(t *testing.T) {
	holdMirror := func(nw *Network, owner *Peer) (chan struct{}, chan struct{}) {
		return gateMirror(mirrorOf(nw, owner), func(req any) bool {
			r, ok := req.(repoMirrorReq)
			return ok && r.Owner == owner.Addr()
		})
	}
	// holdLookup holds every routing step the other peers are asked (a
	// chord closestPrecedingReq) in their transport handlers, ahead of
	// the Chord node that answers it, until the gate closes.
	holdLookup := func(nw *Network, owner *Peer) (chan struct{}, chan struct{}) {
		entered, gate := make(chan struct{}, 16), make(chan struct{})
		for _, p := range nw.Peers() {
			if p == owner {
				continue
			}
			node := p.chord
			nw.Transport.Register(p.Addr(), func(from transport.Addr, req any) (any, error) {
				if fmt.Sprintf("%T", req) == "chord.closestPrecedingReq" {
					entered <- struct{}{}
					<-gate
				}
				return node.HandleRPC(from, req)
			})
		}
		return entered, gate
	}
	// A query for the first object, which is still in the window, finds
	// no record.
	query := func(q func(*Peer, moods.ObjectID) error) func(*Peer, moods.ObjectID) error {
		return func(p *Peer, obj moods.ObjectID) error {
			if err := q(p, obj); !errors.Is(err, ErrNotTracked) {
				return err
			}
			return nil
		}
	}
	flush := func(p *Peer, _ moods.ObjectID) error { return p.FlushWindow() }
	cases := []struct {
		name string
		cfg  Config
		hold func(nw *Network, owner *Peer) (entered, gate chan struct{})
		wait func(*Peer, moods.ObjectID) error // the call that waits on the network
		// buffered is the window's size after the second observation: a
		// flush took the first out before its wait, a query leaves it in.
		buffered int
	}{
		{"repository push", Config{ReplicationFactor: 2}, holdMirror, flush, 1},
		{"gateway lookup", Config{}, holdLookup, flush, 1},
		{"locate", Config{}, holdLookup, query(func(p *Peer, obj moods.ObjectID) error {
			_, err := p.Locate(obj, time.Second)
			return err
		}), 2},
		{"full trace", Config{}, holdLookup, query(func(p *Peer, obj moods.ObjectID) error {
			_, err := p.FullTrace(obj)
			return err
		}), 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			nw := buildNet(t, 4, c.cfg)
			owner := nw.Peers()[0]
			first := remoteGatewayObject(owner)
			entered, gate := c.hold(nw, owner)
			if err := owner.Observe(moods.Observation{Object: first, At: time.Second}); err != nil {
				t.Fatal(err)
			}
			waited := make(chan error, 1)
			go func() { waited <- c.wait(owner, first) }()
			select {
			case <-entered: // the call is waiting on the network, and stuck
			case <-time.After(3 * time.Second):
				close(gate)
				t.Fatal("the call never reached the held network wait in 3 s")
			}

			returned := make(chan struct{})
			go func() {
				defer close(returned)
				if err := owner.Observe(moods.Observation{Object: "second", At: 2 * time.Second}); err != nil {
					t.Error(err)
				}
				if n := owner.Buffered(); n != c.buffered {
					t.Errorf("Buffered = %d after one Observe while the call is in flight, want %d", n, c.buffered)
				}
			}()
			select {
			case <-returned:
			case <-time.After(3 * time.Second):
				t.Error("Observe and Buffered still waiting after 3 s: the call holds the peer's mutex across the network")
			}
			close(gate)
			<-returned
			if err := <-waited; err != nil {
				t.Error(err)
			}
		})
	}
}

// remoteGatewayObject returns the first object first-0, first-1, … whose
// gateway p's lookup reaches through another peer. A gateway id that p
// owns, or that falls in (p, successor], resolves from p's own routing
// state and sends no request that holdLookup could hold.
func remoteGatewayObject(p *Peer) moods.ObjectID {
	for i := 0; ; i++ {
		obj := moods.ObjectID(fmt.Sprintf("first-%d", i))
		if _, local := p.chord.NextHop(ids.KeyOf(obj.Hash(), p.pm.Lp()).GatewayID()); !local {
			return obj
		}
	}
}

// gateMirror holds every request to mirror that block accepts until the
// returned gate closes; entered receives once per request held. Its 16
// slots outnumber the requests any of these tests sends, so a handler
// never blocks on entered once the gate is open.
func gateMirror(mirror *Peer, block func(req any) bool) (entered, gate chan struct{}) {
	entered, gate = make(chan struct{}, 16), make(chan struct{})
	mirror.chord.SetAppHandler(func(from transport.Addr, req any) (any, error) {
		if block(req) {
			entered <- struct{}{}
			<-gate
		}
		return mirror.handleRPC(from, req)
	})
	return entered, gate
}

// TestContendedWritersShareMirrorPushes pins what the stream's
// coalescing buys over plain turn-taking: writers that pile up on one
// unit while a push is in flight all go out in the next push and return
// with it, so under contention there are far fewer pushes than writes.
// (Were every writer to wait for a turn of its own, each turn would find
// what the writers behind it had queued and pay a push for it: as many
// pushes as writes, and a queue that grows with the offered load.)
//
// The pile-up is made, not left to the scheduler: a writer writes only
// while a push is held at the mirror. Each writer waits at a gate before
// each write; the mirror holds every push until each writer that was at
// the gate has written and its id waits in the owner's queue (read off
// the store). When every writer with writes left is at the gate, nothing
// is in flight, and one of them starts.
func TestContendedWritersShareMirrorPushes(t *testing.T) {
	const (
		workers = 16
		rounds  = 40
	)
	// Every write goes to one bucket, which must not delegate them away.
	nw := buildNet(t, 4, Config{ReplicationFactor: 2, DelegationThreshold: 2 * workers * rounds})
	owner, key := gatewayOf(nw, "settled")
	reporter := mirrorOf(nw, owner)
	mirror := mirrorOf(nw, owner)
	entered := make(chan chan struct{})
	mirror.chord.SetAppHandler(func(from transport.Addr, req any) (any, error) {
		if _, push := req.(replicatePutReq); push {
			release := make(chan struct{})
			entered <- release
			<-release
		}
		return mirror.handleRPC(from, req)
	})
	objs := make([][]moods.ObjectID, workers)
	for i, w := 0, 0; w < workers; i++ {
		if o := moods.ObjectID(fmt.Sprintf("other-%d", i)); ids.KeyOf(o.Hash(), nw.lp()) == key {
			if objs[w] = append(objs[w], o); len(objs[w]) == rounds {
				w++
			}
		}
	}
	atGate, finished := make(chan int), make(chan struct{})
	var next [workers]chan int // the gate: the round a writer is let write
	for w := range next {
		next[w] = make(chan int, 1)
	}
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer func() { finished <- struct{}{} }()
			for range objs[w] {
				atGate <- w
				o := objs[w][<-next[w]]
				if _, err := owner.handleRPC(reporter.Addr(), groupArriveReq{Key: key, Events: []ObjEvent{{Object: o, Arrived: time.Second}}, Node: reporter.Name(), At: time.Second}); err != nil {
					t.Error(err)
				}
				if _, ok := mirror.replica.lookup(key, o.Hash()); !ok {
					t.Errorf("%s: not at the mirror after groupArriveReq returned", o)
				}
			}
		}(w)
	}
	var round [workers]int
	queued := func(w int) bool {
		owner.gw.mu.Lock()
		defer owner.gw.mu.Unlock()
		return slices.Contains(owner.gw.dirty[key], objs[w][round[w]-1].Hash())
	}
	var gate []int
	for live := workers; live > 0; {
		select {
		case w := <-atGate:
			gate = append(gate, w)
		case <-finished:
			live--
		case release := <-entered:
			for _, w := range gate {
				next[w] <- round[w]
				round[w]++
			}
			for deadline := time.Now().Add(10 * time.Second); slices.ContainsFunc(gate, func(w int) bool { return !queued(w) }); runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Fatalf("writers %v not all queued behind a held push after 10 s", gate)
				}
			}
			gate = gate[:0]
			close(release)
		}
		if len(gate) == live && live > 0 {
			w := gate[0]
			gate = gate[1:]
			next[w] <- round[w]
			round[w]++
		}
	}

	writes := workers * rounds
	pushes := nw.Telemetry.Counter("transport.call.type.core.replicatePutReq").Value()
	t.Logf("%d writes to one bucket went out in %d pushes (%d writers rode on another's)", writes, pushes,
		nw.Telemetry.Counter("core.replication.coalesced").Value())
	if 2*int(pushes) > writes {
		t.Errorf("%d pushes for %d contended writes: writers are not sharing pushes", pushes, writes)
	}
	if n := nw.Telemetry.Counter("core.replication.repair_pushes").Value(); n != 0 {
		t.Errorf("%d whole-unit pushes", n)
	}
	assertReplicasEqualPrimaries(t, nw)
}

// handOffScene builds a replicated four-peer network and writes the
// bucket of "settled" once through its owner, so the owner's mirror
// holds version 1. It names the owner, the mirror, a third peer to hand
// the bucket to, the bucket, another object filed under it, and a write
// that files an object there as the third peer's arrival.
func handOffScene(t *testing.T) (owner, mirror, heir *Peer, key ids.PrefixKey, next moods.ObjectID, write func(moods.ObjectID)) {
	nw := buildNet(t, 4, Config{ReplicationFactor: 2})
	owner, key = gatewayOf(nw, "settled")
	mirror = mirrorOf(nw, owner)
	for _, p := range nw.Peers() {
		if p != owner && p != mirror {
			heir = p
			break
		}
	}
	write = func(obj moods.ObjectID) {
		if _, err := owner.handleRPC(heir.Addr(), groupArriveReq{Key: key, Events: []ObjEvent{{Object: obj, Arrived: time.Second}}, Node: heir.Name(), At: time.Second}); err != nil {
			t.Error(err)
		}
	}
	write("settled")
	for i := 0; next == ""; i++ {
		if o := moods.ObjectID(fmt.Sprintf("other-%d", i)); ids.KeyOf(o.Hash(), nw.lp()) == key {
			next = o
		}
	}
	return owner, mirror, heir, key, next, write
}

// TestHandOffWaitsForThePushInFlight: a bucket handed off while a push
// of it is held at the mirror leaves in the next turn of its mirror
// stream, so the version line it takes along records the mirror at the
// version the push brings it to. Handed off beside the push, the line
// records the version before it: the new owner believes the mirror one
// delta behind what it holds, and its next write re-ships the whole
// bucket. Were the hand-off to wait for nothing, it would return while
// the push is held; the test gives it 100 ms to do so.
func TestHandOffWaitsForThePushInFlight(t *testing.T) {
	owner, mirror, heir, key, next, write := handOffScene(t)
	entered, gate := gateMirror(mirror, func(req any) bool { _, push := req.(replicatePutReq); return push })
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		write(next)
	}()
	<-entered
	handed := make(chan error, 1)
	go func() {
		_, err := owner.handOff(key, heir.Addr())
		handed <- err
	}()
	select {
	case err := <-handed:
		handed <- err
	case <-time.After(100 * time.Millisecond):
	}
	close(gate)
	<-wrote
	if err := <-handed; err != nil {
		t.Fatal(err)
	}
	u := replication.IndexUnit(key)
	if _, held, ok := mirror.repl.HeldMeta(u); !ok || heir.repl.SyncedAt(u, mirror.Addr()) != held {
		t.Errorf("mirror %s holds version %d of bucket %s, but its new owner %s records it at %d", mirror.Name(), held, key, heir.Name(), heir.repl.SyncedAt(u, mirror.Addr()))
	}
	if n, _ := heir.gw.dumpBucket(key); len(n) != 2 {
		t.Errorf("new owner %s holds %d records of bucket %s, want 2", heir.Name(), len(n), key)
	}
}

// writeQueued files obj in the bucket keyed key on p as a writer does
// before its turn of the mirror stream: in the store and queued, not
// yet pushed.
func writeQueued(p *Peer, key ids.PrefixKey, obj moods.ObjectID, at *Peer) {
	p.gw.upsert(key, IndexEntry{Object: obj, ID: obj.Hash(), Latest: at.Name(), Arrived: time.Second})
}

// TestHandOffTakesTheQueuedWrites: a write that is in the bucket but
// not yet pushed when the bucket is handed off — its writer's turn
// comes after the hand-off's — reaches the mirror before the version
// line leaves, and the writer's late turn finds nothing queued. Handed
// off with the write still queued, the line records the mirror a write
// behind, and the late turn re-creates the bucket's unit on the old
// owner and full-pushes its now empty bucket over the mirror's copy.
func TestHandOffTakesTheQueuedWrites(t *testing.T) {
	owner, mirror, heir, key, next, _ := handOffScene(t)
	writeQueued(owner, key, next, heir)
	if _, err := owner.handOff(key, heir.Addr()); err != nil {
		t.Fatal(err)
	}
	owner.mirrorIndex(key, true) // the writer's turn
	u := replication.IndexUnit(key)
	if slices.Contains(owner.repl.OwnedUnits(), u) {
		t.Errorf("old owner %s owns bucket %s again after handing it off", owner.Name(), key)
	}
	have, _ := mirror.replica.dumpBucket(key)
	want, _ := heir.gw.dumpBucket(key)
	if len(want) != 2 || !reflect.DeepEqual(have, want) {
		t.Errorf("mirror %s holds %d records of bucket %s and its new owner %s %d, want the same 2", mirror.Name(), len(have), key, heir.Name(), len(want))
	}
	if _, held, ok := mirror.repl.HeldMeta(u); !ok || heir.repl.SyncedAt(u, mirror.Addr()) != held {
		t.Errorf("mirror %s holds version %d of bucket %s, but its new owner %s records it at %d", mirror.Name(), held, key, heir.Name(), heir.repl.SyncedAt(u, mirror.Addr()))
	}
}

// TestRelevelTakesTheQueuedWrites: a bucket re-levelled (split when its
// owner's Lp moves deeper) with a write still queued ends its version
// line for good. The write leaves with the records, so the writer's late
// turn finds nothing queued; were the queue left behind, that turn would
// open a new line for the gone bucket on the owner, at version 1, which
// the mirror, having dropped its copy, would accept and hold.
func TestRelevelTakesTheQueuedWrites(t *testing.T) {
	owner, mirror, heir, key, next, _ := handOffScene(t)
	writeQueued(owner, key, next, heir)
	if _, lp := owner.pm.SetNetworkSize(8); lp <= key.Len() {
		t.Fatalf("moving the owner to size 8 gave Lp %d, not deeper than bucket %s", lp, key)
	}
	if moved := owner.ReconcileStep(); moved == 0 {
		t.Fatalf("owner %s moved no bucket", owner.Name())
	}
	owner.mirrorIndex(key, true) // the writer's turn
	u := replication.IndexUnit(key)
	if slices.Contains(owner.repl.OwnedUnits(), u) {
		t.Errorf("owner %s owns re-levelled bucket %s again", owner.Name(), key)
	}
	if _, v, ok := mirror.repl.HeldMeta(u); ok {
		t.Errorf("mirror %s holds re-levelled bucket %s at version %d", mirror.Name(), key, v)
	}
}
