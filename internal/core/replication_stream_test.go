package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"peertrack/internal/ids"
	"peertrack/internal/moods"
	"peertrack/internal/overlay"
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
	key := ids.KeyOf(obj.Hash(), nw.PM.Lp())
	addr, err := nw.Peers()[0].resolveGateway(key)
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
		if o := moods.ObjectID(fmt.Sprintf("other-%d", i)); ids.KeyOf(o.Hash(), nw.PM.Lp()) == key {
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
	holdLookup := func(_ *Network, owner *Peer) (chan struct{}, chan struct{}) {
		g := &gatedLookup{Node: owner.node, entered: make(chan struct{}, 16), gate: make(chan struct{})}
		owner.node = g
		return g.entered, g.gate
	}
	// A query for "first", which is still in the window, finds no record.
	query := func(q func(*Peer) error) func(*Peer) error {
		return func(p *Peer) error {
			if err := q(p); !errors.Is(err, ErrNotTracked) {
				return err
			}
			return nil
		}
	}
	cases := []struct {
		name string
		cfg  Config
		hold func(nw *Network, owner *Peer) (entered, gate chan struct{})
		wait func(*Peer) error // the call that waits on the network
		// buffered is the window's size after "second": a flush took
		// "first" out before its wait, a query leaves it in.
		buffered int
	}{
		{"repository push", Config{ReplicationFactor: 2}, holdMirror, (*Peer).FlushWindow, 1},
		{"gateway lookup", Config{}, holdLookup, (*Peer).FlushWindow, 1},
		{"locate", Config{}, holdLookup, query(func(p *Peer) error {
			_, err := p.Locate("first", time.Second)
			return err
		}), 2},
		{"full trace", Config{}, holdLookup, query(func(p *Peer) error {
			_, err := p.FullTrace("first")
			return err
		}), 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			nw := buildNet(t, 4, c.cfg)
			owner := nw.Peers()[0]
			entered, gate := c.hold(nw, owner)
			if err := owner.Observe(moods.Observation{Object: "first", At: time.Second}); err != nil {
				t.Fatal(err)
			}
			waited := make(chan error, 1)
			go func() { waited <- c.wait(owner) }()
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

// gatedLookup holds every overlay lookup of the node it wraps until
// gate closes; entered is sized as gateMirror's.
type gatedLookup struct {
	overlay.Node
	entered, gate chan struct{}
}

func (g *gatedLookup) Lookup(key ids.ID) (overlay.Result, error) {
	g.entered <- struct{}{}
	<-g.gate
	return g.Node.Lookup(key)
}

// TestContendedWritersShareMirrorPushes pins what the stream's
// coalescing buys over plain turn-taking: writers that pile up on one
// unit while a push is in flight all go out in the next push and return
// with it, so under contention there are far fewer pushes than writes.
// (Were every writer to wait for a turn of its own, each turn would find
// what the writers behind it had queued and pay a push for it: as many
// pushes as writes, and a queue that grows with the offered load.)
func TestContendedWritersShareMirrorPushes(t *testing.T) {
	const (
		workers = 16
		rounds  = 40
	)
	// Every write goes to one bucket, which must not delegate them away.
	nw := buildNet(t, 4, Config{ReplicationFactor: 2, DelegationThreshold: 2 * workers * rounds})
	owner, key := gatewayOf(nw, "settled")
	reporter := mirrorOf(nw, owner)
	// A push takes the mirror a while: long enough for the other writers
	// to run up against the taken stream.
	mirror := mirrorOf(nw, owner)
	mirror.chord.SetAppHandler(func(from transport.Addr, req any) (any, error) {
		if _, push := req.(replicatePutReq); push {
			for i := 0; i < 4*workers; i++ {
				runtime.Gosched()
			}
		}
		return mirror.handleRPC(from, req)
	})
	objs := make([][]moods.ObjectID, workers)
	for i, w := 0, 0; w < workers; i++ {
		if o := moods.ObjectID(fmt.Sprintf("other-%d", i)); ids.KeyOf(o.Hash(), nw.PM.Lp()) == key {
			if objs[w] = append(objs[w], o); len(objs[w]) == rounds {
				w++
			}
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, o := range objs[w] {
				if _, err := owner.handleRPC(reporter.Addr(), groupArriveReq{Key: key, Events: []ObjEvent{{Object: o, Arrived: time.Second}}, Node: reporter.Name(), At: time.Second}); err != nil {
					t.Error(err)
				}
				if _, ok := mirror.replica.lookup(key, o.Hash()); !ok {
					t.Errorf("%s: not at the mirror after groupArriveReq returned", o)
				}
			}
		}(w)
	}
	wg.Wait()

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
